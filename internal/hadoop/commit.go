package hadoop

import (
	"fmt"
	"sync"

	"github.com/ict-repro/mpid/internal/kv"
)

// outputCommitter stands in for the job's output directory on HDFS, shared
// by every tracker as HDFS is. A reduce attempt stages its part under
// (reduce, attempt); the jobtracker promotes the part of the first attempt
// it accepts and drops every other attempt's — Hadoop 0.20's
// FileOutputCommitter moving an attempt's part-r-NNNNN out of _temporary.
// A part staged for a reduce already committed is dropped at once.
type outputCommitter struct {
	mu        sync.Mutex
	staged    map[[2]int]stagedPart // (reduce, attempt)
	committed []bool
}

type stagedPart struct {
	pairs []kv.Pair
	size  int
}

func newOutputCommitter(reduces int) *outputCommitter {
	return &outputCommitter{staged: make(map[[2]int]stagedPart), committed: make([]bool, reduces)}
}

func (c *outputCommitter) stage(reduce, attempt int, pairs []kv.Pair, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.committed[reduce] {
		c.staged[[2]int{reduce, attempt}] = stagedPart{pairs, size}
	}
}

// commit promotes an attempt's part, provided it holds the pairs and bytes
// the attempt reported, and drops every other attempt's part of the reduce.
// It returns the part and how many parts it dropped.
func (c *outputCommitter) commit(reduce, attempt, pairs, size int) ([]kv.Pair, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	part, ok := c.staged[[2]int{reduce, attempt}]
	if !ok || len(part.pairs) != pairs || part.size != size {
		return nil, 0, fmt.Errorf("hadoop: reduce %d attempt %d reported %d pairs in %d bytes, staged %d in %d",
			reduce, attempt, pairs, size, len(part.pairs), part.size)
	}
	c.committed[reduce] = true
	dropped := -1
	for k := range c.staged {
		if k[0] == reduce {
			delete(c.staged, k)
			dropped++
		}
	}
	return part.pairs, dropped, nil
}

// discard drops an attempt's part; it reports whether there was one.
func (c *outputCommitter) discard(reduce, attempt int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.staged[[2]int{reduce, attempt}]
	delete(c.staged, [2]int{reduce, attempt})
	return ok
}
