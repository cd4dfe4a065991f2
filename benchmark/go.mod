module xehe/benchmark

go 1.24

require xehe v0.0.0

// The program under test is the checkout this directory sits in. The
// module path keeps the xehe/ prefix so the layer probes may import
// xehe/internal/... packages.
replace xehe => ../
