// The benchmark is a module of its own because the contract of BENCHMARK.json
// wants a compiled benchmark to carry its own build file. The replace
// directive points at the tree it measures, and the module path keeps it
// inside repro/internal's import boundary.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
