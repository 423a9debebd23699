package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// wallTime matches the report's last line, the only one that varies run
// to run.
var wallTime = regexp.MustCompile(`(?m)^total wall time: .*\n`)

func report(t *testing.T, args ...string) string {
	t.Helper()
	var b bytes.Buffer
	if err := run(&b, args); err != nil {
		t.Fatalf("run %q: %v", args, err)
	}
	return wallTime.ReplaceAllString(b.String(), "")
}

func golden(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestQuickMatchesGolden holds `mpid-report -quick` to the output the
// command printed before its sections became selectable, byte for byte
// but for the wall-time line.
func TestQuickMatchesGolden(t *testing.T) {
	if got, want := report(t, "-quick"), golden(t); got != want {
		t.Errorf("-quick output differs from testdata/quick.golden\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestOnlyPrintsChosenSectionsInReportOrder asks for Table I before
// Figure 1 and expects the header, then Figure 1, then Table I — the
// golden report's lines from the Figure 1 title up to the Figure 6 title.
func TestOnlyPrintsChosenSectionsInReportOrder(t *testing.T) {
	g := golden(t)
	fig1 := strings.Index(g, "Figure 1:")
	fig6 := strings.Index(g, "Figure 6:")
	header := g[:strings.Index(g, "Figure 2 (")]
	if fig1 < 0 || fig6 < fig1 || header == "" {
		t.Fatal("golden report lacks the Figure 1, Figure 6 or header lines")
	}
	if got, want := report(t, "-quick", "-only", "table1,fig1"), header+g[fig1:fig6]; got != want {
		t.Errorf("-only table1,fig1 printed\n%s\nwant\n%s", got, want)
	}
}

func TestOnlyRejectsUnknownSection(t *testing.T) {
	if err := run(io.Discard, []string{"-quick", "-only", "fig7"}); err == nil {
		t.Error("-only fig7 returned no error")
	}
}
