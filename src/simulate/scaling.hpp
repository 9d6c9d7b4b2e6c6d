#pragma once
// Simulated distributed-memory execution of the ULV factorization.
//
// The paper's Fig. 8 / Table 4 run on up to 1,024 MPI cores of NERSC Cori —
// hardware this environment does not have (it exposes a single core).  Per
// DESIGN.md substitution #3+, this module *simulates* the distributed
// execution instead of skipping the experiment: it takes the real HSS
// factorization tree built by this library (actual per-node reduced sizes
// and ranks from a real compression of the dataset), distributes the tree
// over P simulated ranks the way distributed HSS solvers do (leaf subtrees
// round-robin, pairwise rank merging up the top log2(P) levels), charges a
// flop-count model mirroring hss::ULVFactorization for computation and an
// alpha-beta model for the messages exchanged at subtree merges, and plays
// the schedule out level by level.
//
// The simulation therefore reproduces the *mechanism* behind the paper's
// strong-scaling shape: near-linear speedup while every rank owns many
// subtrees, flattening when the top of the tree serializes and communication
// latency dominates — the exact effect the paper describes ("at large core
// count, the number of degrees of freedom per core decreases dramatically,
// while communication time starts to dominate").

#include <cstdint>
#include <vector>

#include "hss/hss_matrix.hpp"

namespace khss::simulate {

/// alpha-beta machine model.  Defaults approximate one Cori Haswell core
/// and its Aries interconnect (per-core share).
struct MachineModel {
  double flops_per_second = 8e9;   // sustained per-core DGEMM-ish rate
  double latency_seconds = 1.5e-6; // per message (alpha)
  double bytes_per_second = 1e9;   // per-link bandwidth share (beta)
};

/// Flop count of eliminating one ULV node with reduced size m and rank r
/// (mirrors the dense operations in hss::ulv.cpp: QL of the m x r basis,
/// LQ of the top me x m block, the two m x m orthogonal applications, and
/// the rotation of the m x r column basis).
double ulv_node_flops(int m, int r);

/// Per-node factorization workloads of a real HSS matrix (postorder).
struct NodeWork {
  int level = 0;        // root = 0
  int reduced_size = 0;      // m of the node's reduced system
  double flops = 0.0;   // elimination cost at this node
  double merge_bytes = 0.0;  // data received from the remote child on merge
};
std::vector<NodeWork> extract_workloads(const hss::HSSMatrix& hss);

struct SimulationResult {
  double total_seconds = 0.0;
  double compute_seconds = 0.0;  // critical-path compute
  double comm_seconds = 0.0;     // critical-path communication
  double ideal_seconds = 0.0;    // serial work / P (perfect scaling)
  double efficiency = 0.0;       // ideal / total
};

/// Simulate the ULV factorization of `hss` on `ranks` simulated processes.
/// `ranks` need not be a power of two (it is rounded down to one).
SimulationResult simulate_ulv_factorization(const hss::HSSMatrix& hss,
                                            int ranks,
                                            const MachineModel& machine = {});

}  // namespace khss::simulate
