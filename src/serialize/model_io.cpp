#include "serialize/model_io.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/ordering.hpp"
#include "serialize/artifacts.hpp"
#include "serialize/container.hpp"
#include "util/contracts.hpp"

namespace khss::serialize {

namespace {

void write_hoptions(ByteWriter& w, const hmat::HOptions& h) {
  w.f64(h.eta);
  w.f64(h.rtol);
  w.i32(h.max_rank);
  w.u8(h.recompress ? 1 : 0);
  w.i32(h.dense_block_cutoff);
  w.u8(h.speculative ? 1 : 0);
  w.i32(h.speculative_rank_cap);
}

hmat::HOptions read_hoptions(ByteReader& r) {
  hmat::HOptions h;
  h.eta = r.f64();
  h.rtol = r.f64();
  h.max_rank = r.i32();
  h.recompress = r.u8() != 0;
  h.dense_block_cutoff = r.i32();
  h.speculative = r.u8() != 0;
  h.speculative_rank_cap = r.i32();
  return h;
}

struct Meta {
  krr::KRROptions opts;
  int n = 0;
  int dim = 0;
  int num_outputs = 0;
};

void write_meta(ByteWriter& w, const krr::KRRModel& model,
                const la::Matrix& weights) {
  const krr::KRROptions& o = model.options();
  w.u32(kModelSchemaVersion);
  w.str(solver::backend_name(o.backend));
  w.str(cluster::ordering_name(o.ordering));
  write_kernel_params(w, o.kernel);
  w.f64(o.lambda);
  w.i32(o.leaf_size);
  w.f64(o.hss_rtol);
  w.i32(o.hss_init_samples);
  w.i32(o.hss_max_rank);
  write_hoptions(w, o.hmatrix);
  w.u64(o.seed);
  w.f64(o.precond_rtol);
  w.f64(o.iterative_rtol);
  w.i32(o.iterative_max_iterations);
  w.i32(o.nystrom_landmarks);
  w.i32(model.n());
  w.i32(model.kernel().dim());
  w.i32(weights.cols());
}

Meta read_meta(ByteReader& r) {
  const std::uint32_t schema = r.u32();
  if (schema != kModelSchemaVersion) {
    const std::string hint =
        schema == 1 ? " — version 1 predates the kernel-zoo spec layout; "
                      "re-save the model with this build"
        : schema == 2 ? " — version 2 predates the symmetric HSS node layout; "
                        "re-save the model with this build"
                      : "";
    r.fail("unsupported model schema version " + std::to_string(schema) +
           " (this build reads version " +
           std::to_string(kModelSchemaVersion) + ")" + hint +
           "; refusing to guess at the layout");
  }
  Meta m;
  const std::string backend = r.str();
  const std::string ordering = r.str();
  try {
    m.opts.backend = solver::backend_from_name(backend);
    m.opts.ordering = cluster::ordering_from_name(ordering);
  } catch (const std::invalid_argument& e) {
    r.fail(e.what());
  }
  m.opts.kernel = read_kernel_params(r);
  m.opts.lambda = r.f64();
  m.opts.leaf_size = r.i32();
  m.opts.hss_rtol = r.f64();
  m.opts.hss_init_samples = r.i32();
  m.opts.hss_max_rank = r.i32();
  m.opts.hmatrix = read_hoptions(r);
  m.opts.seed = r.u64();
  m.opts.precond_rtol = r.f64();
  m.opts.iterative_rtol = r.f64();
  m.opts.iterative_max_iterations = r.i32();
  m.opts.nystrom_landmarks = r.i32();
  m.n = r.i32();
  m.dim = r.i32();
  m.num_outputs = r.i32();
  r.expect_exhausted("the model metadata");
  if (m.n <= 0 || m.dim <= 0 || m.num_outputs <= 0) {
    r.fail("non-positive model shape n = " + std::to_string(m.n) +
           ", dim = " + std::to_string(m.dim) +
           ", outputs = " + std::to_string(m.num_outputs));
  }
  return m;
}

}  // namespace

void save_model(const std::string& path, const krr::KRRModel& model,
                const la::Matrix& weights) {
  KHSS_REQUIRE_STATE(model.fitted(), "serialize::save_model before fit");
  KHSS_REQUIRE(weights.rows() == model.n(),
               "serialize::save_model: weights has "
                   << weights.rows() << " rows; the model's training set has "
                   << "n = " << model.n());
  KHSS_REQUIRE(weights.cols() > 0,
               "serialize::save_model: weights has no columns");

  ContainerWriter container;
  {
    ByteWriter w;
    write_meta(w, model, weights);
    container.add_section("meta", std::move(w));
  }
  {
    ByteWriter w;
    write_cluster_tree(w, model.tree());
    container.add_section("tree", std::move(w));
  }
  {
    ByteWriter w;
    w.matrix(model.kernel().points());  // permuted (tree) order
    container.add_section("points", std::move(w));
  }
  {
    ByteWriter w;
    w.matrix(weights);  // original point order
    container.add_section("weights", std::move(w));
  }
  {
    ByteWriter w;
    model.backend_solver().save_state(w);
    container.add_section("solver", std::move(w));
  }
  container.finish(path);
}

void save_model(const std::string& path, const krr::OneVsAllKRR& ova) {
  save_model(path, ova.model(), ova.weights());
}

LoadedModel load_model(const std::string& path) {
  ContainerReader container(path);

  ByteReader meta_reader = container.reader("meta");
  const Meta meta = read_meta(meta_reader);

  ByteReader tree_reader = container.reader("tree");
  cluster::ClusterTree tree = read_cluster_tree(tree_reader);
  tree_reader.expect_exhausted("the cluster tree");
  if (tree.num_points() != meta.n) {
    tree_reader.fail("cluster tree covers " +
                     std::to_string(tree.num_points()) +
                     " points but the metadata declares n = " +
                     std::to_string(meta.n));
  }

  ByteReader points_reader = container.reader("points");
  la::Matrix points = points_reader.matrix();
  points_reader.expect_exhausted("the training points");
  if (points.rows() != meta.n || points.cols() != meta.dim) {
    points_reader.fail("training points are " + std::to_string(points.rows()) +
                       " x " + std::to_string(points.cols()) +
                       " but the metadata declares " + std::to_string(meta.n) +
                       " x " + std::to_string(meta.dim));
  }

  ByteReader weights_reader = container.reader("weights");
  la::Matrix weights = weights_reader.matrix();
  weights_reader.expect_exhausted("the weight matrix");
  if (weights.rows() != meta.n || weights.cols() != meta.num_outputs) {
    weights_reader.fail("weight matrix is " + std::to_string(weights.rows()) +
                        " x " + std::to_string(weights.cols()) +
                        " but the metadata declares " + std::to_string(meta.n) +
                        " x " + std::to_string(meta.num_outputs));
  }

  krr::KRRModel model = krr::KRRModel::restore(
      meta.opts, std::move(tree), std::move(points),
      [&](const kernel::KernelMatrix& kernel,
          const cluster::ClusterTree& bound_tree) {
        auto solver =
            solver::make(meta.opts.backend, meta.opts.solver_options());
        ByteReader solver_reader = container.reader("solver");
        solver->load_state(solver_reader, kernel, bound_tree);
        return solver;
      });

  predict::BatchPredictor predictor = model.make_predictor(weights);
  // Wire the GP variance path now, while model and predictor sit side by
  // side: the predictor borrows the model's kernel/solver through stable
  // unique_ptr targets, so moving the LoadedModel around keeps it valid.
  model.attach_variance(predictor);
  return LoadedModel{std::move(model), std::move(weights),
                     std::move(predictor)};
}

}  // namespace khss::serialize
