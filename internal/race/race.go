//go:build race

// Package race reports whether the binary was built with the race
// detector, which allocates on its own: tests that pin a heap
// allocation count skip under it.
package race

// Enabled is true in a -race build.
const Enabled = true
