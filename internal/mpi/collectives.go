package mpi

// Barrier blocks until every rank has entered it: the dissemination
// algorithm, log2(n) rounds of pairwise notifications. Every rank must call
// it, and the same number of times — that is what lets the tag be a plain
// per-rank counter: rank k's third Barrier and rank j's third are the same
// operation, so they agree on its tag without negotiating. The tags come
// from the reserved space at collTagBase and above, which Send and Recv
// reject, so a Barrier never matches point-to-point traffic; 2^20 barriers
// would have to be in flight at once for two to share a tag.
func (c *Comm) Barrier() error {
	tag := collTagBase + c.barrierSeq%(1<<20)
	c.barrierSeq++
	n := c.Size()
	for k := 1; k < n; k <<= 1 {
		if err := c.send((c.rank+k)%n, tag, nil); err != nil {
			return err
		}
		if _, err := c.ep.recv((c.rank-k+n)%n, tag); err != nil {
			return err
		}
	}
	return nil
}
