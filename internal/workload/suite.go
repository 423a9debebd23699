package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
)

// This file is the workload suite: the one place a job is defined, as
// wire-parameterizable specs that the job service, mpid-job, the examples,
// the engine equality tests and the benchmark all build from. The paper's
// evaluation — and every baseline before this suite existed — is
// WordCount, whose unique output keys hide whole classes of bugs
// (duplicate-key canonicalization, partitioner skew, value-order-sensitive
// reducers). The suite adds the workloads from "Sorting, Searching, and
// Simulation in the MapReduce Framework": a sampled-range-partitioner
// TeraSort, inverted index, grep, a two-table join, and an iterative
// PageRank, each built so its output is byte-identical across the MPI-D and
// hadoop engines — reducers canonicalize value order internally instead of
// depending on arrival order, which no engine guarantees.
//
// Each Spec declares the integer parameters it accepts; the serve registry,
// and mpid-job through it, rejects any other parameter name, so a typo
// cannot silently run a default-configured job.

// Spec is one named workload: its wire-encodable parameters and a builder
// producing the runnable job.
type Spec struct {
	// Name is the registry key (e.g. "terasort").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Params lists every parameter name Build accepts. Builders apply
	// defaults for missing parameters; callers validate that no unknown
	// names are passed (see serve.Workloads.Build).
	Params []string
	// Build constructs the job and its input splits from parameters.
	Build func(params map[string]int64) (mapred.Job, []mapred.Split, error)
	// Counts marks a job whose every output value is a kv VLong count,
	// which a text listing prints as a decimal.
	Counts bool
}

// Suite returns every workload spec in registry order: wordcount, terasort,
// invindex, grep, join, pagerank.
func Suite() []Spec {
	return []Spec{
		{
			Name:        "wordcount",
			Description: "Zipf text word frequency (the paper's §IV micro-benchmark)",
			Params:      []string{"bytes", "split", "reducers", "seed"},
			Build:       WordCount,
			Counts:      true,
		},
		{
			Name:        "terasort",
			Description: "globally sorted records via a sampled range partitioner",
			Params:      []string{"records", "splits", "reducers", "seed", "skew"},
			Build:       TeraSort,
		},
		{
			Name:        "invindex",
			Description: "word -> sorted document-id postings over synthetic documents",
			Params:      []string{"docs", "lines", "split", "reducers", "seed"},
			Build:       InvertedIndex,
		},
		{
			Name:        "grep",
			Description: "distributed grep: matching lines counted by content",
			Params:      []string{"bytes", "split", "reducers", "seed", "needle"},
			Build:       Grep,
			Counts:      true,
		},
		{
			Name:        "join",
			Description: "two-table repartition join (users x orders, skewed order counts)",
			Params:      []string{"users", "orders", "split", "reducers", "seed"},
			Build:       Join,
		},
		{
			Name:        "pagerank",
			Description: "one PageRank round over a synthetic hub-heavy graph",
			Params:      []string{"vertices", "degree", "split", "reducers", "seed"},
			Build:       PageRank,
		},
	}
}

// Param reads an integer parameter with a default.
func Param(params map[string]int64, key string, def int64) int64 {
	if v, ok := params[key]; ok {
		return v
	}
	return def
}

// ---------------------------------------------------------------------------
// WordCount

// WordCount builds the canonical WordCount job (WordCountJob) over
// Zipf-distributed synthetic text — the same job shape the paper's live
// engine comparison runs. Parameters (all optional):
//
//	bytes     input size in bytes (default 32768)
//	split     split size in bytes (default 8192)
//	reducers  reduce task count (default 2)
//	seed      text generator seed (default 1) — same seed, same input,
//	          same output, which is what makes cross-run digests comparable
func WordCount(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	size := Param(params, "bytes", 32<<10)
	split := Param(params, "split", 8<<10)
	reducers := Param(params, "reducers", 2)
	seed := Param(params, "seed", 1)
	if size <= 0 || split <= 0 || reducers <= 0 {
		return mapred.Job{}, nil, fmt.Errorf("workload: wordcount params out of range (bytes=%d split=%d reducers=%d)", size, split, reducers)
	}

	vocab := NewVocabulary(500, seed)
	text := NewTextGenerator(vocab, 1.15, seed).BytesOfText(int(size))
	return WordCountJob(int(reducers)), mapred.SplitText(text, int(split)), nil
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts, the table bytes.Fields classifies ASCII with.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// WordCountJob is the WordCount job itself, over any line-oriented splits:
// the one mapper/reducer pair every driver runs — the generator above,
// mpid-job -job wordcount on a file, the live Figure 6 — so a change to
// either reaches all of them.
//
// The mapper splits a line exactly as bytes.Fields does (FuzzWordCountFields
// holds it to that), in one pass and in place: it emits sub-slices of the
// line, each with the same encoded 1. Sharing one value across emissions is
// sound because mapred.Emit copies before it returns, on every engine.
func WordCountJob(reducers int) mapred.Job {
	one := kv.AppendVLong(nil, 1)
	mapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
		// Two tight loops, as in bytes.Fields' ASCII path: one skips a run
		// of spaces, the next scans a word. Each stops on a rune of the
		// other kind and hands its width w to the next, so a byte at or
		// above utf8.RuneSelf is decoded once. Invalid UTF-8 decodes to
		// RuneError, which is not a space.
		for i, w := 0, 0; i < len(line); i += w {
			// Spaces, up to a word's first rune.
			for w = 0; i < len(line); {
				if c := line[i]; c < utf8.RuneSelf {
					if !asciiSpace[c] {
						w = 1
						break
					}
					i++
				} else if r, n := utf8.DecodeRune(line[i:]); unicode.IsSpace(r) {
					i += n
				} else {
					w = n
					break
				}
			}
			if w == 0 {
				break
			}
			// The word, up to the space that ends it (skipped by the outer
			// loop) or the line's end (w = 0).
			start := i
			for i, w = i+w, 0; i < len(line); i++ {
				if c := line[i]; c < utf8.RuneSelf {
					if asciiSpace[c] {
						w = 1
						break
					}
				} else if r, n := utf8.DecodeRune(line[i:]); unicode.IsSpace(r) {
					w = n
					break
				} else {
					i += n - 1
				}
			}
			if err := emit(line[start:i], one); err != nil {
				return err
			}
		}
		return nil
	})
	reducer := sumReducer()
	return mapred.Job{
		Name:        "wordcount",
		Mapper:      mapper,
		Reducer:     reducer,
		Combiner:    mapred.CombinerFromReducer(reducer),
		NumReducers: reducers,
	}
}

// sumReducer sums VLong-encoded counts; order-insensitive, so it is safe
// both as a reducer and (via CombinerFromReducer) as a combiner.
func sumReducer() mapred.Reducer {
	return mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		var total int64
		for _, v := range values {
			n, _, err := kv.ReadVLong(v)
			if err != nil {
				return err
			}
			total += n
		}
		return emit(key, kv.AppendVLong(nil, total))
	})
}

// ---------------------------------------------------------------------------
// TeraSort

// TeraSort builds the distributed sort: identity map, identity reduce, and
// a range partitioner whose boundaries are sampled from the input, so that
// concatenating the reducers' outputs in reducer order yields a globally
// sorted sequence however the keys are distributed. Parameters:
//
//	records   record count (default 20000; 100 bytes each)
//	splits    input split count (default 8)
//	reducers  reduce task count (default 4)
//	seed      record generator seed (default 1)
//	skew      0 (default) draws uniform random keys; otherwise keys are
//	          Zipf(skew/100) over a bounded universe — skew=150 means
//	          s=1.5, where duplicate keys dominate the output
func TeraSort(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	records := Param(params, "records", 20000)
	nSplits := Param(params, "splits", 8)
	reducers := Param(params, "reducers", 4)
	seed := Param(params, "seed", 1)
	skew := Param(params, "skew", 0)
	if records <= 0 || nSplits <= 0 || reducers <= 0 || skew < 0 {
		return mapred.Job{}, nil, fmt.Errorf("workload: terasort params out of range (records=%d splits=%d reducers=%d skew=%d)", records, nSplits, reducers, skew)
	}

	n := int(records)
	var block []byte
	var keyLen, recLen int
	if skew > 0 {
		g := NewSkewedSortGenerator(seed, float64(skew)/100, n/4+2)
		block, keyLen, recLen = g.AppendRecords(nil, n), g.KeySize(), g.RecordSize()
	} else {
		g := NewSortGenerator(seed)
		block, keyLen, recLen = g.AppendRecords(nil, n), g.KeySize(), g.RecordSize()
	}
	partitioner := core.RangePartitioner(sampleCuts(block, keyLen, recLen, int(reducers)))

	identityMap := mapred.MapperFunc(func(k, v []byte, emit mapred.Emit) error {
		return emit(k, v)
	})
	// Identity reduce, but with a duplicate key's value list sorted first:
	// engines do not guarantee value arrival order, and a sorted list makes
	// the output of duplicate keys canonical.
	identityReduce := mapred.ReducerFunc(func(k []byte, values [][]byte, emit mapred.Emit) error {
		if len(values) == 1 {
			return emit(k, values[0])
		}
		sorted := append([][]byte(nil), values...)
		sort.Slice(sorted, func(i, j int) bool { return kv.Compare(sorted[i], sorted[j]) < 0 })
		for _, v := range sorted {
			if err := emit(k, v); err != nil {
				return err
			}
		}
		return nil
	})
	job := mapred.Job{
		Name:        "terasort",
		Mapper:      identityMap,
		Reducer:     identityReduce,
		Partitioner: partitioner,
		NumReducers: int(reducers),
	}
	// Cut the block into splits at record boundaries, as TeraInputFormat
	// reads HDFS blocks of whole records.
	splits := make([]mapred.Split, min(int(nSplits), n))
	for i := range splits {
		lo, hi := i*n/len(splits)*recLen, (i+1)*n/len(splits)*recLen
		splits[i] = mapred.NewRecordSplit(i, block[lo:hi], keyLen, recLen)
	}
	return job, splits, nil
}

// sampleCuts samples a block of recLen-byte records for range boundaries,
// as TeraSort samples before launching: ~512 evenly strided keys are
// plenty for tens of reducers.
func sampleCuts(block []byte, keyLen, recLen, reducers int) [][]byte {
	n := len(block) / recLen
	stride := max(n/512, 1)
	sample := make([][]byte, 0, (n+stride-1)/stride)
	for i := 0; i < n; i += stride {
		sample = append(sample, block[i*recLen:i*recLen+keyLen])
	}
	return core.SampleCuts(sample, reducers)
}

// ---------------------------------------------------------------------------
// Inverted index

// InvertedIndex builds word -> posting-list over synthetic documents. Each
// input line is "d<id> w1 w2 ..."; the output maps every word to its
// sorted, deduplicated document-id list. The reducer treats every value as
// a space-separated posting list and unions them, which makes the derived
// combiner sound (combined partial lists re-union losslessly). Parameters:
//
//	docs      document count (default 40)
//	lines     lines per document (default 30)
//	split     split size in bytes (default 4096)
//	reducers  reduce task count (default 2)
//	seed      generator seed (default 1)
func InvertedIndex(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	docs := Param(params, "docs", 40)
	lines := Param(params, "lines", 30)
	split := Param(params, "split", 4<<10)
	reducers := Param(params, "reducers", 2)
	seed := Param(params, "seed", 1)
	if docs <= 0 || lines <= 0 || split <= 0 || reducers <= 0 {
		return mapred.Job{}, nil, fmt.Errorf("workload: invindex params out of range (docs=%d lines=%d split=%d reducers=%d)", docs, lines, split, reducers)
	}

	vocab := NewVocabulary(300, seed)
	var b strings.Builder
	for d := int64(0); d < docs; d++ {
		gen := NewTextGenerator(vocab, 1.2, seed+d)
		gen.WordsPerLine = 8
		for _, line := range gen.Lines(int(lines)) {
			fmt.Fprintf(&b, "d%04d %s\n", d, line)
		}
	}
	splits := mapred.SplitText([]byte(b.String()), int(split))

	mapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
		fields := bytes.Fields(line)
		if len(fields) < 2 {
			return nil
		}
		doc := fields[0]
		for _, w := range fields[1:] {
			if err := emit(w, doc); err != nil {
				return err
			}
		}
		return nil
	})
	reducer := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		set := make(map[string]bool)
		for _, v := range values {
			for _, doc := range strings.Fields(string(v)) {
				set[doc] = true
			}
		}
		postings := make([]string, 0, len(set))
		for doc := range set {
			postings = append(postings, doc)
		}
		sort.Strings(postings)
		return emit(key, []byte(strings.Join(postings, " ")))
	})
	job := mapred.Job{
		Name:        "invindex",
		Mapper:      mapper,
		Reducer:     reducer,
		Combiner:    mapred.CombinerFromReducer(reducer),
		NumReducers: int(reducers),
	}
	return job, splits, nil
}

// ---------------------------------------------------------------------------
// Grep

// Grep builds the distributed grep of the MapReduce paper's motivating
// examples: lines containing the needle word are counted by content, so
// the output is (matching line, occurrence count). Parameters:
//
//	bytes     input size in bytes (default 65536)
//	split     split size in bytes (default 8192)
//	reducers  reduce task count (default 2)
//	seed      text generator seed (default 1)
//	needle    vocabulary rank of the searched word (default 3); low ranks
//	          are hot words under Zipf, so matches are plentiful
func Grep(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	size := Param(params, "bytes", 64<<10)
	split := Param(params, "split", 8<<10)
	reducers := Param(params, "reducers", 2)
	seed := Param(params, "seed", 1)
	needle := Param(params, "needle", 3)
	if size <= 0 || split <= 0 || reducers <= 0 || needle < 0 {
		return mapred.Job{}, nil, fmt.Errorf("workload: grep params out of range (bytes=%d split=%d reducers=%d needle=%d)", size, split, reducers, needle)
	}

	vocab := NewVocabulary(500, seed)
	word := []byte(vocab.Word(int(needle) % vocab.Size()))
	text := NewTextGenerator(vocab, 1.15, seed).BytesOfText(int(size))
	splits := mapred.SplitText(text, int(split))

	mapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
		for _, w := range bytes.Fields(line) {
			if bytes.Equal(w, word) {
				return emit(line, kv.AppendVLong(nil, 1))
			}
		}
		return nil
	})
	reducer := sumReducer()
	job := mapred.Job{
		Name:        "grep",
		Mapper:      mapper,
		Reducer:     reducer,
		Combiner:    mapred.CombinerFromReducer(reducer),
		NumReducers: int(reducers),
	}
	return job, splits, nil
}

// ---------------------------------------------------------------------------
// Two-table join

// Join builds a repartition join between a users table ("U <uid> <name>")
// and an orders table ("O <uid> <amount>"): the mapper tags each record
// with its table and keys it by uid; the reducer matches each user's
// orders, emitting one (uid, "name\tamount") pair per order — duplicate
// output keys for every user with more than one order, sorted by amount so
// the per-key output is canonical. Users without orders emit
// (uid, "name\t-"). Order counts per user are Zipf-skewed, as real order
// tables are. Parameters:
//
//	users     user count (default 150)
//	orders    order count (default 600)
//	split     split size in bytes (default 4096)
//	reducers  reduce task count (default 2)
//	seed      generator seed (default 1)
func Join(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	users := Param(params, "users", 150)
	orders := Param(params, "orders", 600)
	split := Param(params, "split", 4<<10)
	reducers := Param(params, "reducers", 2)
	seed := Param(params, "seed", 1)
	if users <= 0 || orders < 0 || split <= 0 || reducers <= 0 {
		return mapred.Job{}, nil, fmt.Errorf("workload: join params out of range (users=%d orders=%d split=%d reducers=%d)", users, orders, split, reducers)
	}

	vocab := NewVocabulary(int(users), seed)
	var b strings.Builder
	for u := int64(0); u < users; u++ {
		fmt.Fprintf(&b, "U %06d %s\n", u, vocab.Word(int(u)))
	}
	// Order volume per user is Zipf-skewed (s=1.2): a few hot users hold
	// many orders, most hold none or one.
	rng := rand.New(rand.NewSource(seed + 1))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(users-1))
	for o := int64(0); o < orders; o++ {
		fmt.Fprintf(&b, "O %06d %06d\n", zipf.Uint64(), rng.Intn(100000))
	}
	splits := mapred.SplitText([]byte(b.String()), int(split))

	mapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
		fields := bytes.Fields(line)
		if len(fields) != 3 {
			return nil
		}
		switch string(fields[0]) {
		case "U":
			return emit(fields[1], append([]byte("U:"), fields[2]...))
		case "O":
			return emit(fields[1], append([]byte("O:"), fields[2]...))
		}
		return nil
	})
	reducer := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		var name string
		var amounts []string
		for _, v := range values {
			s := string(v)
			switch {
			case strings.HasPrefix(s, "U:"):
				if name == "" || s[2:] < name {
					name = s[2:] // deterministic pick even under anomalies
				}
			case strings.HasPrefix(s, "O:"):
				amounts = append(amounts, s[2:])
			}
		}
		if name == "" {
			return nil // dangling order, no user row: drop, as inner joins do
		}
		if len(amounts) == 0 {
			return emit(key, []byte(name+"\t-"))
		}
		sort.Strings(amounts)
		for _, a := range amounts {
			if err := emit(key, []byte(name+"\t"+a)); err != nil {
				return err
			}
		}
		return nil
	})
	job := mapred.Job{
		Name:        "join",
		Mapper:      mapper,
		Reducer:     reducer,
		NumReducers: int(reducers),
		// No combiner: the reducer's output shape (joined rows) is not its
		// input shape (tagged records), so combining would corrupt.
	}
	return job, splits, nil
}

// ---------------------------------------------------------------------------
// PageRank

const (
	pagerankDamping = 0.85
	// pagerankFloat is the strconv format for ranks: 'g'/17 round-trips
	// float64 exactly, so chained rounds lose no precision on the wire.
	pagerankFloatPrec = 17
)

// PageRank builds ONE PageRank round over a synthetic hub-heavy graph with
// uniform initial ranks. Iterative runs chain rounds without re-reading
// input: feed a round's output through PageRankNextSplits and run
// PageRankJob again (the engine equality suite does exactly this). The
// registry entry runs a single round, which is what a digest needs to be
// comparable. Parameters:
//
//	vertices  vertex count (default 300)
//	degree    average out-degree (default 6)
//	split     split size in bytes (default 4096)
//	reducers  reduce task count (default 2)
//	seed      graph seed (default 1)
func PageRank(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	vertices := Param(params, "vertices", 300)
	degree := Param(params, "degree", 6)
	split := Param(params, "split", 4<<10)
	reducers := Param(params, "reducers", 2)
	seed := Param(params, "seed", 1)
	if vertices <= 1 || degree <= 0 || split <= 0 || reducers <= 0 {
		return mapred.Job{}, nil, fmt.Errorf("workload: pagerank params out of range (vertices=%d degree=%d split=%d reducers=%d)", vertices, degree, split, reducers)
	}
	splits := PageRankInitialSplits(int(vertices), int(degree), seed, int(split))
	return PageRankJob(int(vertices), int(reducers)), splits, nil
}

// PageRankInitialSplits generates the round-0 input: one line per vertex,
// "<id> <rank> <neighbour ids...>", uniform ranks, zero-padded ids so key
// order is numeric order.
func PageRankInitialSplits(vertices, degree int, seed int64, splitBytes int) []mapred.Split {
	graph := NewGraph(vertices, degree, seed)
	var b strings.Builder
	rank := strconv.FormatFloat(1/float64(vertices), 'g', pagerankFloatPrec, 64)
	for v, links := range graph {
		fmt.Fprintf(&b, "%06d %s", v, rank)
		for _, u := range links {
			fmt.Fprintf(&b, " %06d", u)
		}
		b.WriteByte('\n')
	}
	return mapred.SplitText([]byte(b.String()), splitBytes)
}

// PageRankNextSplits turns a finished round's output into the next round's
// input — the MPI-D round chaining: the state lines travel in memory from
// reducers to the next round's mappers, never back through the original
// input. Pairs must be the round's canonical output (Result.Pairs()).
func PageRankNextSplits(pairs []kv.Pair, splitBytes int) []mapred.Split {
	var b strings.Builder
	for _, p := range pairs {
		b.Write(p.Value)
		b.WriteByte('\n')
	}
	return mapred.SplitText([]byte(b.String()), splitBytes)
}

// PageRankJob builds the per-round job: map distributes a vertex's rank
// over its outgoing links and re-emits the adjacency under its own key;
// reduce sums contributions in sorted order (float addition is not
// associative, so a canonical order is what keeps three engines
// byte-identical), applies damping, and emits the updated state line.
func PageRankJob(vertices, reducers int) mapred.Job {
	mapper := mapred.MapperFunc(func(_, value []byte, emit mapred.Emit) error {
		fields := strings.Fields(string(value))
		if len(fields) < 2 {
			return nil
		}
		v := fields[0]
		rank, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return err
		}
		links := fields[2:]
		if err := emit([]byte(v), []byte("L:"+strings.Join(links, " "))); err != nil {
			return err
		}
		if len(links) == 0 {
			return nil
		}
		share := rank / float64(len(links))
		contribution := []byte("R:" + strconv.FormatFloat(share, 'g', pagerankFloatPrec, 64))
		for _, u := range links {
			if err := emit([]byte(u), contribution); err != nil {
				return err
			}
		}
		return nil
	})
	reducer := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		links := ""
		var contribs []string
		for _, val := range values {
			s := string(val)
			switch {
			case strings.HasPrefix(s, "R:"):
				contribs = append(contribs, s[2:])
			case strings.HasPrefix(s, "L:"):
				links = s[2:]
			}
		}
		sort.Strings(contribs)
		var sum float64
		for _, c := range contribs {
			r, err := strconv.ParseFloat(c, 64)
			if err != nil {
				return err
			}
			sum += r
		}
		rank := (1-pagerankDamping)/float64(vertices) + pagerankDamping*sum
		out := string(key) + " " + strconv.FormatFloat(rank, 'g', pagerankFloatPrec, 64)
		if links != "" {
			out += " " + links
		}
		return emit(key, []byte(out))
	})
	return mapred.Job{
		Name:        "pagerank",
		Mapper:      mapper,
		Reducer:     reducer,
		NumReducers: reducers,
		// No combiner: partial contribution sums would change float
		// grouping per engine and break byte identity.
	}
}
