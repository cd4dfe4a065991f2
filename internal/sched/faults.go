package sched

// FaultPlane is the cluster's fault-injection surface, for chaos
// testing and failure drills. Every fault is confined to the simulated
// timing/routing plane: payload bytes are never corrupted, so any job
// that completes — directly, re-routed, or replayed — still produces
// the exact ciphertext the serial path would (the chaos differential
// suite pins this bit-for-bit).
//
// Faults compose: a shard can have delayed, dropped and lost hops and
// an armed kill countdown at once. All methods are safe for concurrent
// use, including while jobs are in flight.
type FaultPlane struct {
	c *Cluster
}

// KillShard fail-stops shard i immediately: it leaves rotation, its
// queued backlog evacuates to the open shards, and its in-flight jobs
// are surrendered by the workers and replayed from host-side inputs
// elsewhere (or fail with ErrShardLost when no open shard remains).
// Returns false — and does nothing — if the shard had already left
// rotation (killed, retired by DrainShard/CloseShard, closed with the
// cluster) or is out of range.
func (fp *FaultPlane) KillShard(i int) bool { return fp.c.killShard(i) }

// KillShardAfter arms a deterministic kill: the batches-th batch to
// start on shard i kills it mid-batch, from the worker goroutine
// itself — after the batch is counted started, before any of its
// results settle. batches <= 0 disarms; a countdown that runs out on a
// shard retired in the meantime kills nothing.
func (fp *FaultPlane) KillShardAfter(i int, batches int64) {
	if sh := fp.c.shard(i); sh != nil {
		sh.killAfter.Store(max(batches, 0))
	}
}

// KillNode fail-stops every shard in failure domain node (shards on
// one node share fate: a node loss takes all of its shards at once).
// Returns the number of shards newly killed.
func (fp *FaultPlane) KillNode(node int) int {
	killed := 0
	for _, sh := range fp.c.all() {
		if sh.spec.Node != node {
			continue
		}
		if fp.c.killShard(sh.id) {
			killed++
		}
	}
	return killed
}

// DelayHops injects extraSeconds of additional one-way latency into
// shard i's next hops network crossings, and marks the shard sick for
// as many health probes so the router steers new work away while the
// link is degraded. No-op for out-of-range shards.
func (fp *FaultPlane) DelayHops(i int, extraSeconds float64, hops int64) {
	if sh := fp.c.shard(i); sh != nil && hops > 0 {
		dev := sh.dev
		dev.InjectLinkDelay(extraSeconds*dev.Spec.ClockGHz*1e9, hops)
		sh.sick.Add(hops)
	}
}

// DropHops makes shard i's next hops network crossings drop and
// retransmit (each costs two extra one-way latencies on the simulated
// timeline), marking the shard sick for as many health probes. The
// payload still arrives — a drop is a timing fault, not data loss.
func (fp *FaultPlane) DropHops(i int, hops int64) {
	if sh := fp.c.shard(i); sh != nil && hops > 0 {
		sh.dev.InjectLinkDrop(hops)
		sh.sick.Add(hops)
	}
}

// FailHops loses shard i's next hops network crossings outright: each
// faulted submission surfaces gpu.ErrLinkFault to the job instead of
// retransmitting, and the shard is marked sick for as many probes.
// Under a retry policy (Config.Retry) the affected jobs re-execute and
// still produce bit-identical results; without one the fault
// propagates to the caller. The only fault class that needs the
// retry plane to stay invisible.
func (fp *FaultPlane) FailHops(i int, hops int64) {
	if sh := fp.c.shard(i); sh != nil && hops > 0 {
		sh.dev.InjectLinkFault(hops)
		sh.sick.Add(hops)
	}
}

// Health reports shard i's current state ("ok", "sick", "killed",
// "closed") without consuming a probe.
func (fp *FaultPlane) Health(i int) string {
	if sh := fp.c.shard(i); sh != nil {
		return sh.health()
	}
	return "unknown"
}
