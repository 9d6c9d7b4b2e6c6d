#include "simulate/scaling.hpp"

#include <algorithm>
#include <cmath>

namespace khss::simulate {

double ulv_node_flops(int m, int r) {
  if (m <= 0) return 0.0;
  const double md = m, rd = r;
  const double me = md - rd;
  // Mirrors hss::ULVFactorization::factor() on one node:
  //  QL of the m x r basis + explicit Omega, Omega*D, LQ of the top me rows
  //  + explicit Q, Dhat = (Omega D) Q^T, Vt = Q V.  Constants are the usual
  //  2mnk GEMM/Householder counts; exactness is irrelevant — the model only
  //  needs the correct growth in m.
  return 2.0 * md * rd * rd + 2.0 * md * md * rd   // QL + Omega
         + 2.0 * md * md * md                      // Omega * D
         + 2.0 * me * me * md + 2.0 * md * md * me // LQ + Q
         + 2.0 * md * md * md                      // Dhat
         + 2.0 * md * md * rd;                     // Vt (V has rank r)
}

std::vector<NodeWork> extract_workloads(const hss::HSSMatrix& hss) {
  const auto& nodes = hss.nodes();
  std::vector<NodeWork> work(nodes.size());

  // Levels from the root.
  std::vector<int> level(nodes.size(), 0);
  for (std::size_t id = 1; id < nodes.size(); ++id) {
    level[id] = level[nodes[id].parent] + 1;
  }

  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const auto& nd = nodes[id];
    NodeWork& w = work[id];
    w.level = level[id];
    int m;
    if (nd.is_leaf()) {
      m = nd.size();
    } else {
      m = nodes[nd.left].urank() + nodes[nd.right].urank();
      // Merge traffic: the remote child ships its kept reduced blocks
      // (Dhat kept-kept, Uhat, Vhat) to the parent's owner.
      const int rc = nodes[nd.right].urank();
      w.merge_bytes = 8.0 * 3.0 * static_cast<double>(rc) * rc;
    }
    w.reduced_size = m;
    w.flops = ulv_node_flops(m, nd.urank());
  }
  return work;
}

SimulationResult simulate_ulv_factorization(const hss::HSSMatrix& hss,
                                            int ranks,
                                            const MachineModel& machine) {
  // Round down to a power of two (distributed HSS codes use binary rank
  // trees; the paper's core counts are powers of two as well).
  int p = 1;
  while (2 * p <= std::max(1, ranks)) p *= 2;

  const std::vector<NodeWork> work = extract_workloads(hss);

  // Group by level, deepest first (bottom-up execution order).
  int max_level = 0;
  for (const auto& w : work) max_level = std::max(max_level, w.level);

  SimulationResult res;
  double serial_flops = 0.0;
  for (const auto& w : work) serial_flops += w.flops;

  for (int lvl = max_level; lvl >= 0; --lvl) {
    double level_flops = 0.0, level_max_flops = 0.0;
    double level_max_bytes = 0.0;
    int level_max_m = 0;
    int count = 0;
    for (const auto& w : work) {
      if (w.level != lvl) continue;
      ++count;
      level_flops += w.flops;
      level_max_flops = std::max(level_max_flops, w.flops);
      level_max_bytes = std::max(level_max_bytes, w.merge_bytes);
      level_max_m = std::max(level_max_m, w.reduced_size);
    }
    if (count == 0) continue;

    double compute = 0.0;
    double comm = 0.0;
    if (count >= p) {
      // Many independent subtrees per rank: balanced local work, no
      // cross-rank traffic (subtrees are owned whole).
      compute = std::max(level_flops / p, level_max_flops) /
                machine.flops_per_second;
    } else {
      // Fewer nodes than ranks: each node gets a q-rank process grid, the
      // way distributed HSS codes (STRUMPACK/ScaLAPACK) run the top of the
      // tree.  Dense kernels of size m cannot productively use more ranks
      // than they have blocks: cap the usable grid at (m / block)^2.
      const int q = std::max(1, p / count);
      const double block = 64.0;
      const double tiles =
          std::max(1.0, (level_max_m / block) * (level_max_m / block));
      const double usable = std::min(static_cast<double>(q), tiles);
      compute = level_max_flops / (machine.flops_per_second * usable);
      // Merge traffic + grid collectives along the critical path.
      const double hops = std::log2(static_cast<double>(q) + 1.0);
      comm = machine.latency_seconds * (1.0 + hops) +
             level_max_bytes / machine.bytes_per_second;
    }

    res.compute_seconds += compute;
    res.comm_seconds += comm;
  }

  res.total_seconds = res.compute_seconds + res.comm_seconds;
  res.ideal_seconds = serial_flops / machine.flops_per_second / p;
  res.efficiency =
      res.total_seconds > 0 ? res.ideal_seconds / res.total_seconds : 1.0;
  return res;
}

}  // namespace khss::simulate
