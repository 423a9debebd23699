package experiments

import (
	"fmt"
	"strings"

	"github.com/ict-repro/mpid/internal/netmodel"
	"github.com/ict-repro/mpid/internal/sim"
)

// Table1Cell is one (input size, slot config) measurement.
type Table1Cell struct {
	SizeGB    int64
	MaxMap    int
	MaxReduce int
	CopyPct   float64
	PaperPct  float64 // 0 when the paper gives no value
}

// Config renders the "4/2"-style configuration label.
func (c Table1Cell) Config() string { return fmt.Sprintf("%d/%d", c.MaxMap, c.MaxReduce) }

// Table1 runs the full sweep: every input size against every slot
// configuration. maxSizeGB caps the sweep (the full 150 GB matrix takes
// minutes of wall time; tests use a smaller cap).
func Table1(maxSizeGB int64) []Table1Cell {
	var cells []Table1Cell
	for _, gb := range Table1Sizes {
		if gb > maxSizeGB {
			continue
		}
		for _, cfg := range Table1Configs {
			r := javaSort(gb*netmodel.GB, cfg[0], cfg[1])
			cell := Table1Cell{
				SizeGB: gb, MaxMap: cfg[0], MaxReduce: cfg[1],
				CopyPct: r.CopyPercent(),
			}
			if row, ok := PaperTable1[gb]; ok {
				cell.PaperPct = row[cell.Config()]
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// javaSort simulates GridMix JavaSort on the paper's cluster with
// maxMap/maxReduce slots per node.
func javaSort(inputBytes int64, maxMap, maxReduce int) *sim.HadoopReport {
	return sim.RunHadoop(sim.JavaSort(inputBytes, maxMap, maxReduce))
}

// RenderTable1 prints the matrix in the paper's layout, measured value
// first with the published value in parentheses.
func RenderTable1(cells []Table1Cell) string {
	var b strings.Builder
	b.WriteString("Table I: copy-stage share of total mapper+reducer execution time\n")
	b.WriteString(fmt.Sprintf("%-8s", "input"))
	for _, cfg := range Table1Configs {
		b.WriteString(fmt.Sprintf("  %-18s", fmt.Sprintf("%d/%d", cfg[0], cfg[1])))
	}
	b.WriteString("\n")
	bySize := make(map[int64][]Table1Cell)
	var order []int64
	for _, c := range cells {
		if _, seen := bySize[c.SizeGB]; !seen {
			order = append(order, c.SizeGB)
		}
		bySize[c.SizeGB] = append(bySize[c.SizeGB], c)
	}
	for _, gb := range order {
		b.WriteString(fmt.Sprintf("%-8s", fmt.Sprintf("%dGB", gb)))
		for _, c := range bySize[gb] {
			b.WriteString(fmt.Sprintf("  %-18s", fmt.Sprintf("%5.1f%% (%.1f%%)", c.CopyPct, c.PaperPct)))
		}
		b.WriteString("\n")
	}
	b.WriteString("(measured first, paper's published value in parentheses)\n")
	return b.String()
}
