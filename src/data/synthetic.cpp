#include "data/synthetic.hpp"

#include <stdexcept>

#include "la/blas.hpp"
#include "la/qr.hpp"

namespace khss::data {

namespace {

// Random matrix with orthonormal columns (dim x latent), via QR of a
// Gaussian matrix: the embedding used to plant low intrinsic dimension.
la::Matrix random_embedding(int dim, int latent, util::Rng& rng) {
  la::Matrix g(dim, latent);
  rng.fill_normal(g.data(), g.size());
  la::QRFactor qr(std::move(g));
  return qr.q_thin();
}

}  // namespace

Dataset make_blobs(const BlobSpec& spec, util::Rng& rng) {
  if (spec.n <= 0 || spec.dim <= 0 || spec.num_classes <= 0 ||
      spec.clusters_per_class <= 0) {
    throw std::invalid_argument("make_blobs: invalid spec");
  }
  const int latent = spec.latent_dim > 0 ? spec.latent_dim : spec.dim;
  if (latent > spec.dim) {
    throw std::invalid_argument("make_blobs: latent_dim > dim");
  }

  // Cluster centers in latent space, one set per class.
  const int total_clusters = spec.num_classes * spec.clusters_per_class;
  la::Matrix centers(total_clusters, latent);
  for (int c = 0; c < total_clusters; ++c) {
    for (int j = 0; j < latent; ++j) {
      centers(c, j) = rng.normal(0.0, spec.center_spread);
    }
  }

  Dataset out;
  out.name = spec.name;
  out.num_classes = spec.num_classes;
  out.labels.resize(spec.n);

  la::Matrix latent_points(spec.n, latent);
  for (int i = 0; i < spec.n; ++i) {
    const int cls = static_cast<int>(rng.index(spec.num_classes));
    const int sub = static_cast<int>(rng.index(spec.clusters_per_class));
    const int c = cls * spec.clusters_per_class + sub;
    for (int j = 0; j < latent; ++j) {
      latent_points(i, j) = centers(c, j) + rng.normal(0.0, spec.cluster_stddev);
    }
    out.labels[i] = cls;
  }

  if (spec.label_noise > 0.0) {
    for (int i = 0; i < spec.n; ++i) {
      if (rng.uniform() < spec.label_noise) {
        out.labels[i] = static_cast<int>(rng.index(spec.num_classes));
      }
    }
  }

  if (latent == spec.dim) {
    out.points = std::move(latent_points);
  } else {
    // Embed into the ambient space and add a whisper of full-dimensional
    // noise so no column is exactly constant.
    const la::Matrix embed = random_embedding(spec.dim, latent, rng);
    out.points = la::matmul(latent_points, embed, la::Trans::kNo,
                            la::Trans::kYes);
    for (int i = 0; i < out.points.rows(); ++i) {
      double* row = out.points.row(i);
      for (int j = 0; j < spec.dim; ++j) row[j] += rng.normal(0.0, 0.01);
    }
  }
  return out;
}

}  // namespace khss::data
