// Package repro is a from-scratch Go reproduction of "Scalable Overlapping
// Community Detection" (El-Helw, Hofman, Li, Ahn, Welling, Bal — IPDPS/IPPS
// 2016): a parallel and distributed stochastic-gradient MCMC sampler for the
// assortative mixed-membership stochastic blockmodel (a-MMSB), together with
// every substrate the paper's system depends on — an MPI-style collective
// layer, an RDMA-style distributed key-value store for the π matrix, a
// double-buffered pipeline, synthetic stand-ins for the SNAP datasets, and a
// calibrated performance model that regenerates the paper's cluster-scale
// figures.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for measured-vs-paper results.
// The benchmarks in bench_test.go regenerate one table or figure each; the
// gated end-to-end benchmark is the bench/ module (bash bench/run.sh).
package repro
