package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
)

func TestSampleCutsEvenQuantiles(t *testing.T) {
	var sample [][]byte
	for i := 0; i < 1000; i++ {
		sample = append(sample, []byte(fmt.Sprintf("%04d", i)))
	}
	cuts := SampleCuts(sample, 4)
	if len(cuts) != 3 {
		t.Fatalf("got %d cuts, want 3", len(cuts))
	}
	want := []string{"0250", "0500", "0750"}
	for i, c := range cuts {
		if string(c) != want[i] {
			t.Fatalf("cut %d = %q, want %q", i, c, want[i])
		}
	}
}

func TestSampleCutsCollapsesDuplicates(t *testing.T) {
	// A key so hot it covers three quarters of the sample: the three
	// quantile boundaries coincide and must collapse to one cut.
	var sample [][]byte
	for i := 0; i < 750; i++ {
		sample = append(sample, []byte("hot"))
	}
	for i := 0; i < 250; i++ {
		sample = append(sample, []byte(fmt.Sprintf("z%03d", i)))
	}
	cuts := SampleCuts(sample, 4)
	if len(cuts) != 2 {
		t.Fatalf("got %d cuts (%q), want 2", len(cuts), cuts)
	}
}

func TestSampleCutsDegenerate(t *testing.T) {
	if cuts := SampleCuts(nil, 4); cuts != nil {
		t.Fatalf("empty sample produced cuts %q", cuts)
	}
	if cuts := SampleCuts([][]byte{[]byte("a")}, 1); cuts != nil {
		t.Fatalf("n=1 produced cuts %q", cuts)
	}
}

func TestRangePartitionerOrderPreserving(t *testing.T) {
	cuts := [][]byte{[]byte("g"), []byte("p")}
	part := RangePartitioner(cuts)
	cases := []struct {
		key  string
		want int
	}{
		{"", 0}, {"a", 0}, {"f", 0}, {"g", 1}, {"m", 1}, {"p", 2}, {"z", 2},
	}
	for _, c := range cases {
		if got := part([]byte(c.key), 3); got != c.want {
			t.Fatalf("partition(%q) = %d, want %d", c.key, got, c.want)
		}
	}
	// Fewer partitions than cuts+1 must still stay in range.
	if got := part([]byte("z"), 2); got != 1 {
		t.Fatalf("clamped partition = %d, want 1", got)
	}
}

// TestRangePartitionerBalancesSkew is the reason the sampled partitioner
// exists: on Zipf-skewed keys the first-byte partitioner collapses most of
// the data into one range, while cuts sampled from the distribution keep
// every partition within a small factor of the mean.
func TestRangePartitionerBalancesSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.5, 1, 9999)
	keys := make([][]byte, 20000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%05d", zipf.Uint64()))
	}
	const n = 8
	sampled := RangePartitioner(SampleCuts(keys, n))

	count := func(part PartitionFunc) []int {
		counts := make([]int, n)
		for _, k := range keys {
			counts[part(k, n)]++
		}
		return counts
	}
	sampledCounts := count(sampled)
	naiveCounts := count(FirstByteRangePartitioner)

	max := func(c []int) int {
		m := 0
		for _, v := range c {
			if v > m {
				m = v
			}
		}
		return m
	}
	mean := len(keys) / n
	if m := max(naiveCounts); m < 9*len(keys)/10 {
		t.Fatalf("expected first-byte partitioner to collapse (all keys share a first byte), max=%d", m)
	}
	// Zipf s=1.5 puts ~45%% of all draws on the single hottest key, so one
	// partition is irreducibly hot; the sampled cuts must still spread the
	// rest instead of collapsing everything into one range.
	if m := max(sampledCounts); m > 6*mean {
		t.Fatalf("sampled partitioner left a partition with %d of %d keys (mean %d): %v",
			m, len(keys), mean, sampledCounts)
	}
	occupied := 0
	for _, v := range sampledCounts {
		if v > 0 {
			occupied++
		}
	}
	if occupied < n/2 {
		t.Fatalf("only %d of %d partitions occupied: %v", occupied, n, sampledCounts)
	}

	// Order preservation: partition index must be monotone in the key.
	for i := 0; i < 5000; i++ {
		a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		if kv.Compare(a, b) > 0 {
			a, b = b, a
		}
		if sampled(a, n) > sampled(b, n) {
			t.Fatalf("partition(%q)=%d > partition(%q)=%d breaks range order",
				a, sampled(a, n), b, sampled(b, n))
		}
	}
}

// TestRangePartitionerMatchesSortSearch holds the partitioner's hand-written
// binary search to sort.Search over the cuts: random cuts and keys over a
// small alphabet, every cut itself, the empty key, and partition counts from
// len(cuts)+1 down to 1, which clamp.
func TestRangePartitionerMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for round := 0; round < 300; round++ {
		cuts := SampleCuts(randomKeys(rng, 1+rng.Intn(200), 1+rng.Intn(3)), 1+rng.Intn(20))
		part := RangePartitioner(cuts)
		keys := append(randomKeys(rng, 100, rng.Intn(4)), []byte{})
		keys = append(keys, cuts...)
		for _, key := range keys {
			search := sort.Search(len(cuts), func(i int) bool { return bytes.Compare(key, cuts[i]) < 0 })
			for _, n := range []int{len(cuts) + 1, len(cuts)/2 + 1, 1} {
				if got, want := part(key, n), min(search, n-1); got != want {
					t.Fatalf("%d cuts %q, n=%d: partition(%q) = %d, sort.Search gives %d", len(cuts), cuts, n, key, got, want)
				}
			}
		}
	}
}
