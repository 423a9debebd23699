package workload

import (
	"bytes"
	"fmt"
	"math"
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
// Each Spec is an input half and a job half over one parameter table, so a
// driver with its own input (mpid-job -input) generates none. The serve
// registry, and mpid-job through it, refuses a parameter name a spec does
// not declare, so a typo cannot silently run a default-configured job.

// Parameter is one integer parameter of a Spec: its name on the wire and
// in -param, the value a job takes when it is not given, and the smallest
// value accepted (math.MinInt64: any).
type Parameter struct {
	Name           string
	Default, Least int64
}

// seedParam is every spec's generator seed: same seed, same input, same
// output, which is what makes cross-run digests comparable.
var seedParam = Parameter{"seed", 1, math.MinInt64}

// Spec is one named workload: its parameters, the input it generates and
// the job it runs.
type Spec struct {
	// Name is the registry key (e.g. "terasort").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Params declares every parameter the spec takes.
	Params []Parameter
	// Input generates the spec's input from resolved parameters (Values).
	Input func(v map[string]int64) ([]mapred.Split, error)
	// Job builds the job over input, the spec's own or any splits of that
	// shape; only terasort's reads it, to sample its range cuts.
	Job func(v map[string]int64, input []mapred.Split) (mapred.Job, error)
	// Counts marks a job whose every output value is a kv VLong count,
	// which a text listing prints as a decimal.
	Counts bool
}

// Values resolves params against the spec's table: each declared parameter
// takes its given value or its default, and a value below its Least is an
// error naming it. Undeclared names are not read (serve.Workloads.Check).
func (s Spec) Values(params map[string]int64) (map[string]int64, error) {
	v := make(map[string]int64, len(s.Params))
	for _, p := range s.Params {
		x, ok := params[p.Name]
		if !ok {
			x = p.Default
		} else if x < p.Least {
			return nil, fmt.Errorf("workload: %s parameter %s=%d is below its least value %d", s.Name, p.Name, x, p.Least)
		}
		v[p.Name] = x
	}
	return v, nil
}

// Build resolves params and builds the spec's job over its own input.
func (s Spec) Build(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	v, err := s.Values(params)
	if err != nil {
		return mapred.Job{}, nil, err
	}
	input, err := s.Input(v)
	if err != nil {
		return mapred.Job{}, nil, err
	}
	job, err := s.Job(v, input)
	return job, input, err
}

// Suite returns every workload spec in registry order: wordcount, terasort,
// invindex, grep, join, pagerank.
func Suite() []Spec {
	return []Spec{wordCountSpec, teraSortSpec, InvertedIndex, Grep, Join, PageRank}
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

// wordCountSpec is the canonical WordCount job (WordCountJob) over
// Zipf-distributed synthetic text, the job shape the paper's live engine
// comparison runs.
var wordCountSpec = Spec{
	Name:        "wordcount",
	Description: "Zipf text word frequency (the paper's §IV micro-benchmark)",
	Params:      []Parameter{{"bytes", 32 << 10, 1}, {"split", 8 << 10, 1}, {"reducers", 2, 1}, seedParam},
	Input: func(v map[string]int64) ([]mapred.Split, error) {
		text := NewTextGenerator(NewVocabulary(500, v["seed"]), 1.15, v["seed"]).BytesOfText(int(v["bytes"]))
		return mapred.SplitText(text, int(v["split"])), nil
	},
	Job: func(v map[string]int64, _ []mapred.Split) (mapred.Job, error) {
		return WordCountJob(int(v["reducers"])), nil
	},
	Counts: true,
}

// WordCount builds the wordcount spec's job over its generated input.
func WordCount(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	return wordCountSpec.Build(params)
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

// teraSortSpec is the distributed sort: identity map, identity reduce, and
// a range partitioner whose boundaries are sampled from the input, so that
// concatenating the reducers' outputs in reducer order yields a globally
// sorted sequence however the keys are distributed. Its records are 100
// bytes; skew 0 draws uniform random keys, and otherwise keys are
// Zipf(skew/100) over a bounded universe — skew=150 means s=1.5, where
// duplicate keys dominate the output.
var teraSortSpec = Spec{
	Name:        "terasort",
	Description: "globally sorted records via a sampled range partitioner",
	Params:      []Parameter{{"records", 20000, 1}, {"splits", 8, 1}, {"reducers", 4, 1}, seedParam, {"skew", 0, 0}},
	Input:       teraSortInput,
	Job:         teraSortJob,
}

// TeraSort builds the terasort spec's job over its generated input.
func TeraSort(params map[string]int64) (mapred.Job, []mapred.Split, error) {
	return teraSortSpec.Build(params)
}

// teraSortInput generates the records as one block and cuts it into splits
// at record boundaries, as TeraInputFormat reads HDFS blocks of whole
// records.
func teraSortInput(v map[string]int64) ([]mapred.Split, error) {
	n := int(v["records"])
	var block []byte
	var keyLen, recLen int
	if skew := v["skew"]; skew > 0 {
		g := NewSkewedSortGenerator(v["seed"], float64(skew)/100, n/4+2)
		block, keyLen, recLen = g.AppendRecords(nil, n), g.KeySize(), g.RecordSize()
	} else {
		g := NewSortGenerator(v["seed"])
		block, keyLen, recLen = g.AppendRecords(nil, n), g.KeySize(), g.RecordSize()
	}
	splits := make([]mapred.Split, min(int(v["splits"]), n))
	for i := range splits {
		lo, hi := i*n/len(splits)*recLen, (i+1)*n/len(splits)*recLen
		splits[i] = mapred.NewRecordSplit(i, block[lo:hi], keyLen, recLen)
	}
	return splits, nil
}

func teraSortJob(v map[string]int64, input []mapred.Split) (mapred.Job, error) {
	cuts, err := sampleCuts(input, int(v["reducers"]))
	if err != nil {
		return mapred.Job{}, fmt.Errorf("workload: terasort range sample: %w", err)
	}
	// Identity reduce, but with a duplicate key's value list sorted first:
	// engines do not guarantee value arrival order, and a sorted list makes
	// the output of duplicate keys canonical.
	identityReduce := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		if len(values) == 1 {
			return emit(key, values[0])
		}
		sorted := append([][]byte(nil), values...)
		sort.Slice(sorted, func(i, j int) bool { return kv.Compare(sorted[i], sorted[j]) < 0 })
		for _, value := range sorted {
			if err := emit(key, value); err != nil {
				return err
			}
		}
		return nil
	})
	return mapred.Job{
		Name:        "terasort",
		Mapper:      mapred.MapperFunc(func(key, value []byte, emit mapred.Emit) error { return emit(key, value) }),
		Reducer:     identityReduce,
		Partitioner: core.RangePartitioner(cuts),
		NumReducers: int(v["reducers"]),
	}, nil
}

// sampleCuts samples the input's keys for range boundaries, as TeraSort
// samples at submission: ~512 keys evenly strided over the records, in
// split order, are plenty for tens of reducers. The keys are the splits'
// own, which core.SampleCuts copies.
func sampleCuts(input []mapred.Split, reducers int) ([][]byte, error) {
	each := func(yield func(key, value []byte) error) error {
		for _, s := range input {
			if err := s.Records(yield); err != nil {
				return err
			}
		}
		return nil
	}
	n := 0
	if err := each(func(_, _ []byte) error { n++; return nil }); err != nil {
		return nil, err
	}
	stride, i := max(n/512, 1), 0
	sample := make([][]byte, 0, (n+stride-1)/stride)
	err := each(func(key, _ []byte) error {
		if i%stride == 0 {
			sample = append(sample, key)
		}
		i++
		return nil
	})
	return core.SampleCuts(sample, reducers), err
}

// ---------------------------------------------------------------------------
// Inverted index

// InvertedIndex is word -> posting-list over synthetic documents. Each
// input line is "d<id> w1 w2 ..."; the output maps every word to its
// sorted, deduplicated document-id list. The reducer treats every value as
// a space-separated posting list and unions them, which makes the derived
// combiner sound (combined partial lists re-union losslessly). Its input
// is lines per document, each of eight words.
var InvertedIndex = Spec{
	Name:        "invindex",
	Description: "word -> sorted document-id postings over synthetic documents",
	Params:      []Parameter{{"docs", 40, 1}, {"lines", 30, 1}, {"split", 4 << 10, 1}, {"reducers", 2, 1}, seedParam},
	Input: func(v map[string]int64) ([]mapred.Split, error) {
		seed := v["seed"]
		vocab := NewVocabulary(300, seed)
		var b strings.Builder
		for d := int64(0); d < v["docs"]; d++ {
			gen := NewTextGenerator(vocab, 1.2, seed+d)
			gen.WordsPerLine = 8
			for _, line := range gen.Lines(int(v["lines"])) {
				fmt.Fprintf(&b, "d%04d %s\n", d, line)
			}
		}
		return mapred.SplitText([]byte(b.String()), int(v["split"])), nil
	},
	Job: func(v map[string]int64, _ []mapred.Split) (mapred.Job, error) {
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
			for _, val := range values {
				for _, doc := range strings.Fields(string(val)) {
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
		return mapred.Job{
			Name:        "invindex",
			Mapper:      mapper,
			Reducer:     reducer,
			Combiner:    mapred.CombinerFromReducer(reducer),
			NumReducers: int(v["reducers"]),
		}, nil
	},
}

// ---------------------------------------------------------------------------
// Grep

// Grep is the distributed grep of the MapReduce paper's motivating
// examples: lines containing the needle word are counted by content, so
// the output is (matching line, occurrence count). The needle is a
// vocabulary rank; low ranks are hot words under Zipf, so matches are
// plentiful.
var Grep = Spec{
	Name:        "grep",
	Description: "distributed grep: matching lines counted by content",
	Params:      []Parameter{{"bytes", 64 << 10, 1}, {"split", 8 << 10, 1}, {"reducers", 2, 1}, seedParam, {"needle", 3, 0}},
	Input: func(v map[string]int64) ([]mapred.Split, error) {
		text := NewTextGenerator(NewVocabulary(500, v["seed"]), 1.15, v["seed"]).BytesOfText(int(v["bytes"]))
		return mapred.SplitText(text, int(v["split"])), nil
	},
	Job: func(v map[string]int64, _ []mapred.Split) (mapred.Job, error) {
		vocab := NewVocabulary(500, v["seed"])
		word := []byte(vocab.Word(int(v["needle"] % int64(vocab.Size()))))
		mapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
			for _, w := range bytes.Fields(line) {
				if bytes.Equal(w, word) {
					return emit(line, kv.AppendVLong(nil, 1))
				}
			}
			return nil
		})
		reducer := sumReducer()
		return mapred.Job{
			Name:        "grep",
			Mapper:      mapper,
			Reducer:     reducer,
			Combiner:    mapred.CombinerFromReducer(reducer),
			NumReducers: int(v["reducers"]),
		}, nil
	},
	Counts: true,
}

// ---------------------------------------------------------------------------
// Two-table join

// Join is a repartition join between a users table ("U <uid> <name>") and
// an orders table ("O <uid> <amount>"): the mapper tags each record with
// its table and keys it by uid; the reducer matches each user's orders,
// emitting one (uid, "name\tamount") pair per order — duplicate output
// keys for every user with more than one order, sorted by amount so the
// per-key output is canonical. Users without orders emit (uid, "name\t-").
// Order counts per user are Zipf-skewed, as real order tables are.
var Join = Spec{
	Name:        "join",
	Description: "two-table repartition join (users x orders, skewed order counts)",
	Params:      []Parameter{{"users", 150, 1}, {"orders", 600, 0}, {"split", 4 << 10, 1}, {"reducers", 2, 1}, seedParam},
	Input: func(v map[string]int64) ([]mapred.Split, error) {
		users, seed := v["users"], v["seed"]
		vocab := NewVocabulary(int(users), seed)
		var b strings.Builder
		for u := int64(0); u < users; u++ {
			fmt.Fprintf(&b, "U %06d %s\n", u, vocab.Word(int(u)))
		}
		// Order volume per user is Zipf-skewed (s=1.2): a few hot users hold
		// many orders, most hold none or one.
		rng := rand.New(rand.NewSource(seed + 1))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(users-1))
		for o := int64(0); o < v["orders"]; o++ {
			fmt.Fprintf(&b, "O %06d %06d\n", zipf.Uint64(), rng.Intn(100000))
		}
		return mapred.SplitText([]byte(b.String()), int(v["split"])), nil
	},
	Job: func(v map[string]int64, _ []mapred.Split) (mapred.Job, error) {
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
			for _, val := range values {
				s := string(val)
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
		return mapred.Job{
			Name:        "join",
			Mapper:      mapper,
			Reducer:     reducer,
			NumReducers: int(v["reducers"]),
			// No combiner: the reducer's output shape (joined rows) is not
			// its input shape (tagged records), so combining would corrupt.
		}, nil
	},
}

// ---------------------------------------------------------------------------
// PageRank

const (
	pagerankDamping = 0.85
	// pagerankFloat is the strconv format for ranks: 'g'/17 round-trips
	// float64 exactly, so chained rounds lose no precision on the wire.
	pagerankFloatPrec = 17
)

// PageRank is ONE PageRank round over a synthetic hub-heavy graph of
// vertices with the given average out-degree. Its input is round 0: one
// line per vertex, "<id> <rank> <neighbour ids...>", uniform ranks,
// zero-padded ids so key order is numeric order. Iterative runs chain
// rounds without re-reading input: feed a round's output through
// PageRankNextSplits and run the same job again (the engine equality suite
// does exactly this). A registry build runs a single round, which is what a
// digest needs to be comparable.
//
// The job's map distributes a vertex's rank over its outgoing links and
// re-emits the adjacency under its own key; reduce sums contributions in
// sorted order (float addition is not associative, so a canonical order is
// what keeps three engines byte-identical), applies damping, and emits the
// updated state line.
var PageRank = Spec{
	Name:        "pagerank",
	Description: "one PageRank round over a synthetic hub-heavy graph",
	Params:      []Parameter{{"vertices", 300, 2}, {"degree", 6, 1}, {"split", 4 << 10, 1}, {"reducers", 2, 1}, seedParam},
	Input: func(v map[string]int64) ([]mapred.Split, error) {
		vertices := v["vertices"]
		graph := NewGraph(int(vertices), int(v["degree"]), v["seed"])
		var b strings.Builder
		rank := strconv.FormatFloat(1/float64(vertices), 'g', pagerankFloatPrec, 64)
		for id, links := range graph {
			fmt.Fprintf(&b, "%06d %s", id, rank)
			for _, u := range links {
				fmt.Fprintf(&b, " %06d", u)
			}
			b.WriteByte('\n')
		}
		return mapred.SplitText([]byte(b.String()), int(v["split"])), nil
	},
	Job: pageRankJob,
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

func pageRankJob(v map[string]int64, _ []mapred.Split) (mapred.Job, error) {
	vertices := float64(v["vertices"])
	mapper := mapred.MapperFunc(func(_, value []byte, emit mapred.Emit) error {
		fields := strings.Fields(string(value))
		if len(fields) < 2 {
			return nil
		}
		id := fields[0]
		rank, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return err
		}
		links := fields[2:]
		if err := emit([]byte(id), []byte("L:"+strings.Join(links, " "))); err != nil {
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
		rank := (1-pagerankDamping)/vertices + pagerankDamping*sum
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
		NumReducers: int(v["reducers"]),
		// No combiner: partial contribution sums would change float
		// grouping per engine and break byte identity.
	}, nil
}
