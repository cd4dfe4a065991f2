package sched

import (
	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/memcache"
	"xehe/internal/sycl"
)

// Backend abstracts the execution target of a Scheduler: the piece of
// (simulated) hardware that mints per-worker execution contexts, shares
// one device buffer cache across the worker pool, and keeps the
// simulated clocks. The scheduler's dispatcher and worker layers only
// ever talk to this interface, so the same scheduling machinery drives
// a single device today and heavier targets (remote devices, NUMA
// nodes) without touching the dispatch logic; a multi-device Cluster is
// built as a router over several single-backend schedulers rather than
// one scheduler over a composite backend, keeping each device's
// in-order pipelines and cache private to its shard.
type Backend interface {
	// Tiles returns the number of independent queue targets; workers
	// are pinned round-robin across them.
	Tiles() int
	// WorkerContext mints the private core context of worker id: an
	// in-order queue bound to one of the backend's tiles, sharing the
	// backend's buffer cache. multiQ marks the queue as part of an
	// explicit multi-queue set (it then pays the per-submission
	// multi-queue tax, Section III-C.2).
	WorkerContext(params *ckks.Parameters, cfg core.Config, id int, multiQ bool) *core.Context
	// Cache returns the shared device buffer cache.
	Cache() *memcache.Cache
	// Staging returns the shared pinned-staging pool backing the
	// workers' gathered host<->device transfers; worker contexts draw
	// their transfer staging from it so buffers recycle across batch
	// waves.
	Staging() *memcache.StagingPool
	// SimulatedSeconds returns the simulated wall-clock consumed on the
	// backend so far (the busiest of host and tile timelines).
	SimulatedSeconds() float64
	// ResetClocks zeroes the simulated clocks, preserving allocation
	// accounting (steady-state measurement after a warm-up phase).
	ResetClocks()
	// Release tears down backend resources after every worker has
	// stopped, returning the number of orphaned buffers reclaimed.
	Release() int
}

// DeviceBackend is the single-device Backend: one simulated GPU whose
// tiles the workers pin to, with one device-wide buffer cache.
type DeviceBackend struct {
	dev     *gpu.Device
	cache   *memcache.Cache
	staging *memcache.StagingPool
}

// NewDeviceBackend wraps a device and the fresh buffer cache cfg asks
// for (recycling per cfg.MemCache, size-only buffers per cfg.Analytic;
// see core.NewCache) as a scheduler backend. cfg must be the
// scheduler's Config.Core: WorkerContext rejects a config of the other
// mode.
func NewDeviceBackend(dev *gpu.Device, cfg core.Config) *DeviceBackend {
	return &DeviceBackend{
		dev:     dev,
		cache:   core.NewCache(dev, cfg),
		staging: memcache.NewStagingPool(),
	}
}

// Device returns the underlying simulated device.
func (b *DeviceBackend) Device() *gpu.Device { return b.dev }

// Tiles returns the device's tile count.
func (b *DeviceBackend) Tiles() int { return b.dev.Spec.Tiles }

// WorkerContext builds worker id's private context on tile id mod
// Tiles.
func (b *DeviceBackend) WorkerContext(params *ckks.Parameters, cfg core.Config, id int, multiQ bool) *core.Context {
	q := sycl.NewQueueOnTile(b.dev, id%b.dev.Spec.Tiles, cfg.Codegen(), multiQ)
	if cfg.Blocking {
		q.Raw().SetBlocking(true)
	}
	ctx := core.NewContextOn(params, b.dev, cfg, []*sycl.Queue{q}, b.cache)
	ctx.Staging = b.staging
	return ctx
}

// Cache returns the device-wide buffer cache.
func (b *DeviceBackend) Cache() *memcache.Cache { return b.cache }

// Staging returns the device-wide pinned-staging pool.
func (b *DeviceBackend) Staging() *memcache.StagingPool { return b.staging }

// SimulatedSeconds returns the device's simulated wall-clock.
func (b *DeviceBackend) SimulatedSeconds() float64 { return b.dev.SimulatedSeconds() }

// ResetClocks zeroes the device's simulated clocks.
func (b *DeviceBackend) ResetClocks() { b.dev.ResetClocks() }

// Release drops the cache pools back to the driver.
func (b *DeviceBackend) Release() int { return b.cache.ReleaseAll() }
