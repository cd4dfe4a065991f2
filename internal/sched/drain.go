package sched

// Retirement: DrainShard (CloseShard is the same call) takes a shard out
// of service without the replay cost of a fail-stop. Where killShard
// surrenders in-flight batches (re-executed from host inputs elsewhere),
// a drain lets them settle in place, relocates the queued backlog as-is,
// and pre-copies the shard's device-resident graph intermediates to the
// host through the existing rematerialization path — so consumers on
// other shards keep working and zero jobs replay. The kernels are
// deterministic, so the results are bit-identical to the serial path
// either way; a drain is simply cheaper (Stats.Drained/Migrated vs
// Replayed quantify it).

// DrainShard gracefully takes shard i out of service: it leaves the
// routing tables immediately, its queued (not yet dispatched) backlog
// relocates to the open shards without replay (Stats.Drained), its
// in-flight batches settle in place, its device-resident outputs migrate
// to the host (Stats.Migrated) — tearing the scheduler down first would
// free them under their consumers — and only then does its scheduler
// tear down. Safe to call concurrently with traffic. A shard leaves
// rotation once (see killShard): on one already retired, killed or
// closed with the cluster this is a no-op — a kill has evacuated and
// surrendered everything, and a teardown here would race replays still
// materializing resident outputs off the dead device. With every shard
// retired, Submit returns ErrNoShards until AddShard revives the
// cluster.
func (c *Cluster) DrainShard(i int) {
	sh := c.shard(i)
	if sh == nil {
		return
	}
	c.stealMu.Lock()
	if !sh.on(evDrain) {
		c.stealMu.Unlock()
		return
	}
	c.evacuateLocked(sh, c.drainedCnt)
	c.stealMu.Unlock()
	// Fence in-flight Submits: a router that picked this shard before
	// it left rotation may still be submitting under c.mu's read lock.
	// Taking the write lock waits them out; anything they enqueued
	// settles in the Drain below, and every later Submit routes
	// elsewhere.
	c.mu.Lock()
	c.mu.Unlock() //lint:ignore SA2001 empty critical section is the fence
	// Let the shard's in-flight work settle in place — no surrender,
	// no replay. Work parked in the retry plane with this shard as its
	// accounting home re-injects elsewhere concurrently, so this
	// cannot wedge.
	sh.Drain()
	// Pre-copy live device-resident graph intermediates to the host:
	// late consumers and Future.Wait fall back to the host value
	// exactly as a cross-shard edge would.
	c.migratedCnt.Add(sh.migrateResidents())
	sh.on(evDrained)
	sh.Close()
}

// trackResident records a device-resident output this scheduler owns
// (settleOutput, under the future's lock).
func (s *Scheduler) trackResident(f *Future) {
	s.resMu.Lock()
	if s.residents == nil {
		s.residents = make(map[*Future]struct{})
	}
	s.residents[f] = struct{}{}
	s.resMu.Unlock()
}

// untrackResident drops a released residency from the owner's index.
func (s *Scheduler) untrackResident(f *Future) {
	s.resMu.Lock()
	delete(s.residents, f)
	s.resMu.Unlock()
}

// migrateResidents evacuates every live device-resident output the
// scheduler still owns: the value materializes into its future's host
// slot through the owner download path (what a cross-shard consumer
// would pay anyway) and the residency force-releases. Late consumers
// then resolve against the host copy; nothing replays and nothing is
// lost. Returns the number of outputs that actually moved. Called by
// DrainShard after the shard's own work has settled.
func (s *Scheduler) migrateResidents() int64 {
	s.resMu.Lock()
	futs := make([]*Future, 0, len(s.residents))
	for f := range s.residents {
		futs = append(futs, f)
	}
	s.resMu.Unlock()
	var moved int64
	for _, f := range futs {
		f.mu.Lock()
		r := f.resident
		if r == nil || r.released || r.owner != s {
			f.mu.Unlock()
			continue
		}
		if f.res == nil {
			if _, err := f.materializeLocked(); err == nil {
				moved++
			}
		}
		// Force-release whether or not the copy succeeded: the shard is
		// retiring, same-shard borrows can no longer form, and holding
		// the pins would leak the buffers. Consumer releaseRef calls
		// that race this are no-ops on a released residency.
		f.releaseLocked()
		f.mu.Unlock()
	}
	return moved
}
