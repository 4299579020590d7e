// Package shardstore is a Go reproduction of the system and methodology of
// "Using Lightweight Formal Methods to Validate a Key-Value Storage Node in
// Amazon S3" (Bornholt et al., SOSP 2021).
//
// The repository contains two intertwined artifacts:
//
//   - a ShardStore-like key-value storage node — an LSM-tree index over a
//     chunk store over append-only extents, with soft-updates crash
//     consistency (dependency-ordered writebacks), garbage collection,
//     recovery, and an RPC request/control plane (internal/disk, dep,
//     extent, chunk, lsm, buffercache, store, rpc);
//
//   - the paper's lightweight formal-methods validation stack — executable
//     reference models that double as mocks, property-based conformance
//     checking with biasing and automatic minimization, crash-consistency
//     checking over torn crash states, stateless model checking
//     (random/PCT/bounded-DFS) with deterministic replay, and a
//     linearizability checker (internal/model, prop, core, shuttle,
//     linearize), plus the re-seeded catalog of the paper's 16 production
//     bugs (internal/faults) and the experiments that regenerate every
//     table and figure (internal/experiments).
//
// Start with DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-vs-measured results, examples/quickstart for a first run, and
// cmd/experiments for every figure.
package shardstore
