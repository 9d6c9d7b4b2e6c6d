#include "serialize/artifacts.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "kernel/kernel_spec.hpp"

namespace khss::serialize {

namespace {

// Optional sub-objects (e.g. a leaf's LU in an internal SMW node) are a
// one-byte presence flag followed by the payload when present.
void write_optional_lu(ByteWriter& w, const la::LUFactor* lu) {
  w.u8(lu ? 1 : 0);
  if (lu) write_lu(w, *lu);
}

std::unique_ptr<la::LUFactor> read_optional_lu(ByteReader& r) {
  const std::uint8_t present = r.u8();
  if (present == 0) return nullptr;
  if (present != 1) {
    r.fail("invalid presence flag " + std::to_string(present) +
           " for an optional LU factor");
  }
  return std::make_unique<la::LUFactor>(read_lu(r));
}

}  // namespace

namespace {

// Matches kernel_spec.cpp's parser depth cap: a legitimate spec never nests
// this deep, so a deeper stream is corruption, not a model.
constexpr int kKernelNestingCap = 16;

void write_kernel_node(ByteWriter& w, const kernel::KernelParams& p) {
  w.u8(static_cast<std::uint8_t>(p.type));
  w.f64(p.h);
  w.i32(p.degree);
  w.f64(p.coef0);
  w.f64(p.weight);
  w.u32(static_cast<std::uint32_t>(p.terms.size()));
  for (const kernel::KernelParams& t : p.terms) write_kernel_node(w, t);
}

kernel::KernelParams read_kernel_node(ByteReader& r, int depth) {
  if (depth >= kKernelNestingCap) {
    r.fail("kernel spec nests deeper than " +
           std::to_string(kKernelNestingCap) + " levels");
  }
  kernel::KernelParams p;
  const std::uint8_t type = r.u8();
  if (type >= static_cast<std::uint8_t>(kernel::kNumKernelTypes)) {
    r.fail("unknown kernel type tag " + std::to_string(type));
  }
  p.type = static_cast<kernel::KernelType>(type);
  p.h = r.f64();
  p.degree = r.i32();
  p.coef0 = r.f64();
  p.weight = r.f64();
  const std::uint32_t count = r.u32();
  // Each child is at least the fixed 29-byte node head; a count the payload
  // cannot possibly hold is a splice/corruption, caught before allocating.
  if (count > r.remaining()) {
    r.fail("kernel composite declares " + std::to_string(count) +
           " children but only " + std::to_string(r.remaining()) +
           " bytes remain");
  }
  p.terms.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    p.terms.push_back(read_kernel_node(r, depth + 1));
  }
  return p;
}

}  // namespace

void write_kernel_params(ByteWriter& w, const kernel::KernelParams& p) {
  write_kernel_node(w, p);
}

kernel::KernelParams read_kernel_params(ByteReader& r) {
  kernel::KernelParams p = read_kernel_node(r, 0);
  // Shape contradictions a byte-level read cannot see — an atom carrying
  // children, a childless composite, a non-positive weight or bandwidth —
  // are refused here with the spec-layer diagnostic.
  try {
    kernel::validate_kernel_params(p);
  } catch (const std::invalid_argument& e) {
    r.fail(std::string("invalid kernel spec: ") + e.what());
  }
  return p;
}

void write_cluster_tree(ByteWriter& w, const cluster::ClusterTree& tree) {
  w.i32(tree.leaf_size());
  w.vec_i32(tree.perm());
  w.u64(tree.nodes().size());
  for (const auto& nd : tree.nodes()) {
    w.i32(nd.lo);
    w.i32(nd.hi);
    w.i32(nd.left);
    w.i32(nd.right);
    w.i32(nd.parent);
    w.vec_f64(nd.centroid);
    w.f64(nd.radius);
  }
}

cluster::ClusterTree read_cluster_tree(ByteReader& r) {
  const int leaf_size = r.i32();
  std::vector<int> perm = r.vec_i32();
  const std::uint64_t count = r.u64();
  if (count > r.remaining()) {
    r.fail("cluster tree node count exceeds payload");
  }
  std::vector<cluster::ClusterNode> nodes(count);
  for (auto& nd : nodes) {
    nd.lo = r.i32();
    nd.hi = r.i32();
    nd.left = r.i32();
    nd.right = r.i32();
    nd.parent = r.i32();
    nd.centroid = r.vec_f64();
    nd.radius = r.f64();
  }
  cluster::ClusterTree tree(std::move(nodes), std::move(perm), leaf_size);
  if (!tree.validate()) {
    r.fail("cluster tree fails structural validation (ranges or links are "
           "inconsistent)");
  }
  return tree;
}

void write_lowrank(ByteWriter& w, const hmat::LowRank& lr) {
  w.matrix(lr.u);
  w.matrix(lr.v);
}

hmat::LowRank read_lowrank(ByteReader& r) {
  hmat::LowRank lr;
  lr.u = r.matrix();
  lr.v = r.matrix();
  if (lr.u.cols() != lr.v.cols()) {
    r.fail("low-rank factors disagree on rank (" +
           std::to_string(lr.u.cols()) + " vs " + std::to_string(lr.v.cols()) +
           ")");
  }
  return lr;
}

void write_lu(ByteWriter& w, const la::LUFactor& lu) {
  w.matrix(lu.packed());
  w.vec_i32(lu.pivots());
}

la::LUFactor read_lu(ByteReader& r) {
  la::Matrix packed = r.matrix();
  std::vector<int> piv = r.vec_i32();
  return la::LUFactor::from_parts(std::move(packed), std::move(piv));
}

void write_cholesky(ByteWriter& w, const la::CholeskyFactor& chol) {
  w.matrix(chol.l());
}

la::CholeskyFactor read_cholesky(ByteReader& r) {
  return la::CholeskyFactor::from_factor(r.matrix());
}

void write_hss(ByteWriter& w, const hss::HSSMatrix& hss) {
  w.i32(hss.n());
  w.vec_i32(hss.postorder());
  w.u64(hss.nodes().size());
  for (const auto& nd : hss.nodes()) {
    w.i32(nd.lo);
    w.i32(nd.hi);
    w.i32(nd.left);
    w.i32(nd.right);
    w.i32(nd.parent);
    w.matrix(nd.d);
    w.matrix(nd.u);
    w.matrix(nd.b01);
    w.vec_i32(nd.jrow);
  }
}

hss::HSSMatrix read_hss(ByteReader& r) {
  const int n = r.i32();
  std::vector<int> postorder = r.vec_i32();
  const std::uint64_t count = r.u64();
  if (count > r.remaining()) r.fail("HSS node count exceeds payload");
  std::vector<hss::HSSNode> nodes(count);
  for (auto& nd : nodes) {
    nd.lo = r.i32();
    nd.hi = r.i32();
    nd.left = r.i32();
    nd.right = r.i32();
    nd.parent = r.i32();
    nd.d = r.matrix();
    nd.u = r.matrix();
    nd.b01 = r.matrix();
    nd.jrow = r.vec_i32();
  }
  hss::HSSMatrix hss(std::move(nodes), std::move(postorder), n);
  if (!hss.empty() && !hss.validate()) {
    r.fail("HSS matrix fails structural validation (tree shape or generator "
           "ranks are inconsistent)");
  }
  return hss;
}

void write_ulv(ByteWriter& w, const hss::ULVFactorization& ulv) {
  const auto& nf = ulv.node_factors();
  w.u64(nf.size());
  for (const auto& f : nf) {
    w.i32(f.m);
    w.i32(f.me);
    w.matrix(f.omega);
    w.matrix(f.dhat);
    w.matrix(f.qlq);
    w.matrix(f.uhat);
    w.matrix(f.vhat);
    w.matrix(f.v1);
  }
  write_optional_lu(w, ulv.root_lu());
}

std::unique_ptr<hss::ULVFactorization> read_ulv(ByteReader& r,
                                                const hss::HSSMatrix& hss) {
  const std::uint64_t count = r.u64();
  if (count > r.remaining()) r.fail("ULV node count exceeds payload");
  std::vector<hss::ULVFactorization::NodeFactor> nf(count);
  for (auto& f : nf) {
    f.m = r.i32();
    f.me = r.i32();
    f.omega = r.matrix();
    f.dhat = r.matrix();
    f.qlq = r.matrix();
    f.uhat = r.matrix();
    f.vhat = r.matrix();
    f.v1 = r.matrix();
  }
  std::unique_ptr<la::LUFactor> root_lu = read_optional_lu(r);
  return std::make_unique<hss::ULVFactorization>(hss, std::move(nf),
                                                 std::move(root_lu));
}

void write_hodlr(ByteWriter& w, const hodlr::HODLRMatrix& m) {
  w.i32(m.n());
  w.vec_i32(m.postorder());
  w.u64(m.nodes().size());
  for (const auto& nd : m.nodes()) {
    w.i32(nd.lo);
    w.i32(nd.hi);
    w.i32(nd.left);
    w.i32(nd.right);
    w.matrix(nd.d);
    write_lowrank(w, nd.upper);
    write_lowrank(w, nd.lower);
  }
}

hodlr::HODLRMatrix read_hodlr(ByteReader& r) {
  const int n = r.i32();
  std::vector<int> postorder = r.vec_i32();
  const std::uint64_t count = r.u64();
  if (count > r.remaining()) r.fail("HODLR node count exceeds payload");
  std::vector<hodlr::HODLRMatrix::Node> nodes(count);
  for (auto& nd : nodes) {
    nd.lo = r.i32();
    nd.hi = r.i32();
    nd.left = r.i32();
    nd.right = r.i32();
    nd.d = r.matrix();
    nd.upper = read_lowrank(r);
    nd.lower = read_lowrank(r);
  }
  return hodlr::HODLRMatrix(n, std::move(nodes), std::move(postorder));
}

void write_smw(ByteWriter& w, const hodlr::SMWFactorization& smw) {
  const auto& nf = smw.node_factors();
  w.u64(nf.size());
  for (const auto& f : nf) {
    write_optional_lu(w, f.leaf_lu.get());
    w.matrix(f.dinv_w);
    w.matrix(f.z);
    write_optional_lu(w, f.cap_lu.get());
  }
}

hodlr::SMWFactorization read_smw(ByteReader& r,
                                 const hodlr::HODLRMatrix& hodlr) {
  const std::uint64_t count = r.u64();
  if (count > r.remaining()) r.fail("SMW node count exceeds payload");
  std::vector<hodlr::SMWFactorization::NodeFactor> nf(count);
  for (auto& f : nf) {
    f.leaf_lu = read_optional_lu(r);
    f.dinv_w = r.matrix();
    f.z = r.matrix();
    f.cap_lu = read_optional_lu(r);
  }
  return hodlr::SMWFactorization(hodlr, std::move(nf));
}

void write_hmatrix(ByteWriter& w, const hmat::HMatrix& m) {
  w.i32(m.n());
  w.f64(m.lambda());
  w.u64(m.blocks().size());
  for (const auto& blk : m.blocks()) {
    w.i32(blk.row_lo);
    w.i32(blk.row_hi);
    w.i32(blk.col_lo);
    w.i32(blk.col_hi);
    w.u8(blk.low_rank ? 1 : 0);
    if (blk.low_rank) {
      write_lowrank(w, blk.lr);
    } else {
      w.matrix(blk.dense);
    }
  }
}

hmat::HMatrix read_hmatrix(ByteReader& r) {
  const int n = r.i32();
  const double lambda = r.f64();
  const std::uint64_t count = r.u64();
  if (count > r.remaining()) r.fail("H-matrix block count exceeds payload");
  std::vector<hmat::HBlock> blocks(count);
  for (auto& blk : blocks) {
    blk.row_lo = r.i32();
    blk.row_hi = r.i32();
    blk.col_lo = r.i32();
    blk.col_hi = r.i32();
    const std::uint8_t low_rank = r.u8();
    if (low_rank > 1) {
      r.fail("invalid low-rank flag " + std::to_string(low_rank) +
             " in an H-matrix block");
    }
    blk.low_rank = low_rank == 1;
    if (blk.low_rank) {
      blk.lr = read_lowrank(r);
    } else {
      blk.dense = r.matrix();
    }
  }
  return hmat::HMatrix(n, lambda, std::move(blocks));
}

}  // namespace khss::serialize
