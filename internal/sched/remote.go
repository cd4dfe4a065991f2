package sched

import (
	"xehe/internal/core"
	"xehe/internal/gpu"
)

// NetLink describes the simulated network hop between the scheduler's
// host and a device on a remote node. The zero value is a host-local
// attachment (no hop is priced).
type NetLink struct {
	// LatencySeconds is the one-way wire latency per crossing. Every
	// wire-format submission delays command arrival by it, and every
	// host sync pays it on the completion's way back.
	LatencySeconds float64
	// GBps is the link bandwidth applied to H2D/D2H payloads on top of
	// the device's PCIe leg; 0 models a latency-only hop.
	GBps float64
}

// Local reports whether the link is the zero (host-local) attachment.
func (l NetLink) Local() bool { return l.LatencySeconds == 0 && l.GBps == 0 }

// RemoteBackend is a DeviceBackend whose device lives on a simulated
// remote node: every wire-format submit, H2D/D2H payload and completion
// sync is priced with the node's network hop on the simulated timeline
// (gpu.Device.SetLink), so a Cluster can span nodes with distinct
// failure domains while each shard keeps its private in-order pipelines
// and cache. Embedding keeps the full DeviceBackend surface — including
// the Device() accessor the observability layer type-asserts on — so a
// remote shard is a drop-in sched.Backend.
type RemoteBackend struct {
	*DeviceBackend
	node int
	link NetLink
}

// NewRemoteBackend wraps a device on remote node `node` behind the
// given link. The hop is converted to device cycles once here; the
// device then charges it on every crossing without the scheduler
// knowing the shard is remote.
func NewRemoteBackend(dev *gpu.Device, cfg core.Config, node int, link NetLink) *RemoteBackend {
	cyclesPerSec := dev.Spec.ClockGHz * 1e9
	var bpc float64
	if link.GBps > 0 {
		bpc = link.GBps * 1e9 / cyclesPerSec
	}
	dev.SetLink(link.LatencySeconds*cyclesPerSec, bpc)
	return &RemoteBackend{
		DeviceBackend: NewDeviceBackend(dev, cfg),
		node:          node,
		link:          link,
	}
}

// Node returns the failure-domain id of the backing node.
func (b *RemoteBackend) Node() int { return b.node }

// Link returns the configured network hop.
func (b *RemoteBackend) Link() NetLink { return b.link }

// LinkStats returns the device's hop counters.
func (b *RemoteBackend) LinkStats() gpu.LinkStats { return b.Device().LinkStats() }
