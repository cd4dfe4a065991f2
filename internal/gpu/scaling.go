package gpu

import "strconv"

// Multi-tile / multi-GPU scaling extension. The paper's conclusion
// names "extending our HE library to multi-GPU and heterogeneous
// platforms" as future work; the simulator supports it directly by
// instantiating devices with more tiles (a tile with its own queue is
// the same abstraction as an additional GPU behind another queue, with
// a lower marginal-scaling coefficient for the cross-device case).

// ScaledSpec returns a copy of the spec with the given tile count and
// marginal per-tile scaling (e.g. 0.72 for on-package tiles, lower for
// discrete multi-GPU over PCIe).
func ScaledSpec(base DeviceSpec, tiles int, scaling float64) DeviceSpec {
	s := base
	s.Name = base.Name + "-x" + strconv.Itoa(tiles)
	s.Tiles = tiles
	s.MultiTileScaling = scaling
	return s
}

// MultiGPUSpec models a small cluster of Device1-class GPUs: each
// "tile" is a whole GPU behind its own queue, with a lower marginal
// scaling factor reflecting cross-device synchronization and the lack
// of a shared L3.
func MultiGPUSpec(gpus int) DeviceSpec {
	s := ScaledSpec(Device1Spec(), gpus*Device1Spec().Tiles, 0.60)
	s.Name = "MultiGPU-" + strconv.Itoa(gpus)
	s.MultiQueueTaxCycles *= 2 // cross-device submission cost
	return s
}

// ClusterWeight is the routing weight of a device within a cluster: its
// whole-device int64 peak throughput. A front-end router dividing load
// by these weights sends a Device1 (2 tiles, 512 EU/tile at 1.6 GHz)
// about 4.7x the jobs of a Device2 (1 tile, 256 EU at 1.35 GHz).
func ClusterWeight(spec *DeviceSpec) float64 { return spec.PeakGIOPS() }
