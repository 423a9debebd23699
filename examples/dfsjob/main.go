// DFS job: the complete Hadoop-shaped pipeline on real components — write
// input into the miniature HDFS (block placement + replication), run a
// WordCount over per-block splits with TextInputFormat record-boundary
// semantics on the MPI-D runtime, survive a datanode failure mid-way, and
// write the result back into the file system. A second pass then runs the
// same job on the live Hadoop engine while a tasktracker is crashed
// mid-job, showing task re-execution recover the lost work end-to-end.
//
//	go run ./examples/dfsjob
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"time"

	"github.com/ict-repro/mpid/internal/dfs"
	"github.com/ict-repro/mpid/internal/engine"
	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/workload"
)

func main() {
	// An 8-node DFS, 16 KB blocks (scaled-down 64 MB), 3-way replication.
	nn, err := dfs.NewCluster(8, dfs.Config{BlockSize: 16 << 10, Replication: 3})
	if err != nil {
		log.Fatal(err)
	}

	// Ingest ~1 MB of text.
	vocab := workload.NewVocabulary(3_000, 21)
	text := workload.NewTextGenerator(vocab, 1.2, 22).BytesOfText(1 << 20)
	w, err := nn.Create("/jobs/wordcount/input.txt")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := w.Write(text); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := nn.Stat("/jobs/wordcount/input.txt")
	fmt.Printf("ingested %d bytes into %d blocks across %d datanodes\n",
		info.Size, info.Blocks, nn.DataNodeCount())

	// Kill a datanode: replication must carry the job.
	nn.DataNode(2).Fail()
	fmt.Printf("datanode 2 failed; %d blocks under-replicated, job proceeds on replicas\n",
		len(nn.UnderReplicated()))

	splits, err := mapred.DFSSplits(nn, "/jobs/wordcount/input.txt")
	if err != nil {
		log.Fatal(err)
	}

	mapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
		for _, word := range bytes.Fields(line) {
			if err := emit(word, kv.AppendVLong(nil, 1)); err != nil {
				return err
			}
		}
		return nil
	})
	reducer := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
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

	result, _, err := engine.MPID{Mappers: 6}.Run(context.Background(), mapred.Job{
		Name:        "dfs-wordcount",
		Mapper:      mapper,
		Reducer:     reducer,
		Combiner:    mapred.CombinerFromReducer(reducer),
		NumReducers: 4,
	}, splits, engine.Telemetry{})
	if err != nil {
		log.Fatal(err)
	}

	// Write each reducer's output as a part file, Hadoop-style.
	var totalWords int64
	for r, pairs := range result.ByReducer {
		out, err := nn.Create(fmt.Sprintf("/jobs/wordcount/output/part-r-%05d", r))
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range pairs {
			n, _, err := kv.ReadVLong(p.Value)
			if err != nil {
				log.Fatal(err)
			}
			totalWords += n
			fmt.Fprintf(out, "%s\t%d\n", p.Key, n)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("job done: %d map tasks, %d distinct words, %d total words\n",
		result.MapTasks, len(result.Pairs()), totalWords)
	fmt.Printf("outputs: %v\n", nn.List()[1:])

	// Read one part file back to show the round trip.
	r, err := nn.Open("/jobs/wordcount/output/part-r-00000")
	if err != nil {
		log.Fatal(err)
	}
	head, err := io.ReadAll(r)
	if err != nil {
		log.Fatal(err)
	}
	lines := bytes.SplitN(head, []byte("\n"), 4)
	fmt.Println("part-r-00000 head:")
	for i := 0; i < 3 && i < len(lines); i++ {
		fmt.Printf("  %s\n", lines[i])
	}

	// Second pass: the same job on the live Hadoop engine (RPC heartbeats
	// + HTTP shuffle), with tasktracker 1 of 3 crashed mid-job by the
	// fault injector. The jobtracker declares it lost, re-executes its
	// maps (whose shuffle outputs died with it) on the survivors, and the
	// reducers are redirected to the replacement copies.
	fmt.Println("\nlive engine rerun with a tasktracker crash mid-job:")
	inj := faults.New(1, faults.Rule{
		Component: "hadoop.tracker1",
		Operation: "heartbeat",
		After:     8, // dies on its 9th heartbeat, with work in flight
		Action:    faults.Crash,
	})
	slowMapper := mapred.MapperFunc(func(k, line []byte, emit mapred.Emit) error {
		time.Sleep(2 * time.Millisecond) // keep maps in flight at crash time
		return mapper.Map(k, line, emit)
	})
	liveRes, _, err := engine.Hadoop{Config: hadoop.Config{
		NumTrackers:    3,
		Injector:       inj,
		TrackerTimeout: 200 * time.Millisecond,
	}}.Run(context.Background(), mapred.Job{
		Name:        "dfs-wordcount-live",
		Mapper:      slowMapper,
		Reducer:     reducer,
		Combiner:    mapred.CombinerFromReducer(reducer),
		NumReducers: 4,
	}, splits, engine.Telemetry{})
	if err != nil {
		log.Fatal(err)
	}
	match := len(liveRes.Pairs()) == len(result.Pairs())
	for i, p := range liveRes.Pairs() {
		q := result.Pairs()[i]
		if !match || !bytes.Equal(p.Key, q.Key) || !bytes.Equal(p.Value, q.Value) {
			match = false
			break
		}
	}
	fmt.Printf("tracker 1 crashed: %v; max executions of one task: %d (re-execution %d attempts)\n",
		inj.Crashed("hadoop.tracker1"), liveRes.MaxTaskExecutions, liveRes.FailedAttempts)
	fmt.Printf("live output identical to MPI-D run despite the crash: %v\n", match)
}
