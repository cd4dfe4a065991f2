package sched

import (
	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/memcache"
	"xehe/internal/sycl"
)

// Backend is the execution target of one Scheduler: a simulated GPU
// whose tiles the workers pin to, the device-wide buffer cache the
// worker pool shares, the pinned-staging pool behind its gathered
// transfers, and the simulated clocks. A multi-device Cluster is a
// router over several single-backend schedulers rather than one
// scheduler over a composite backend, keeping each device's in-order
// pipelines and cache private to its shard.
type Backend struct {
	dev     *gpu.Device
	cache   *memcache.Cache
	staging *memcache.StagingPool
}

// newBackend wraps a device and the fresh buffer cache cfg asks for
// (recycling per cfg.MemCache, size-only buffers per cfg.Analytic; see
// core.NewCache). cfg must be the scheduler's Config.Core:
// WorkerContext rejects a config of the other mode.
func newBackend(dev *gpu.Device, cfg core.Config) *Backend {
	return &Backend{
		dev:     dev,
		cache:   core.NewCache(dev, cfg),
		staging: memcache.NewStagingPool(),
	}
}

// Device returns the underlying simulated device.
func (b *Backend) Device() *gpu.Device { return b.dev }

// Tiles returns the number of independent queue targets; workers are
// pinned round-robin across them.
func (b *Backend) Tiles() int { return b.dev.Spec.Tiles }

// WorkerContext mints the private core context of worker id: an
// in-order queue on tile id mod Tiles, sharing the backend's buffer
// cache and staging pool. multiQ marks the queue as part of an explicit
// multi-queue set (it then pays the per-submission multi-queue tax,
// Section III-C.2).
func (b *Backend) WorkerContext(params *ckks.Parameters, cfg core.Config, id int, multiQ bool) *core.Context {
	q := sycl.NewQueueOnTile(b.dev, id%b.dev.Spec.Tiles, cfg.Codegen(), multiQ)
	if cfg.Blocking {
		q.Raw().SetBlocking(true)
	}
	ctx := core.NewContextOn(params, b.dev, cfg, []*sycl.Queue{q}, b.cache)
	ctx.Staging = b.staging
	return ctx
}

// Cache returns the device-wide buffer cache.
func (b *Backend) Cache() *memcache.Cache { return b.cache }

// Staging returns the device-wide pinned-staging pool; worker contexts
// draw their transfer staging from it so buffers recycle across batch
// waves.
func (b *Backend) Staging() *memcache.StagingPool { return b.staging }

// SimulatedSeconds returns the simulated wall-clock consumed on the
// device so far (the busiest of host and tile timelines).
func (b *Backend) SimulatedSeconds() float64 { return b.dev.SimulatedSeconds() }

// ResetClocks zeroes the simulated clocks, preserving allocation
// accounting (steady-state measurement after a warm-up phase).
func (b *Backend) ResetClocks() { b.dev.ResetClocks() }

// Release drops the cache pools back to the driver after every worker
// has stopped, returning the number of orphaned buffers reclaimed.
func (b *Backend) Release() int { return b.cache.ReleaseAll() }
