// Package mstc is a from-scratch Go reproduction of "Mobility-Sensitive
// Topology Control in Mobile Ad Hoc Networks" (Wu & Dai, IPDPS 2004; TPDS
// 2006): localized topology-control protocols (RNG, Gabriel, local-MST,
// minimum-energy SPT, Yao), the consistency and mobility-management
// mechanisms that keep them connected under node movement, and the full
// discrete-event simulation study that evaluates them.
//
// The implementation lives under internal/; see README.md for the map,
// DESIGN.md for the system inventory, and EXPERIMENTS.md for the
// paper-versus-measured record. cmd/paperfig regenerates every table and
// figure of the paper's evaluation section; bench/ is the benchmark.
package mstc
