#pragma once
// Synthetic dataset generation.
//
// The generators build labeled Gaussian-mixture point clouds whose geometric
// cluster structure drives the same mechanism the paper studies: clustered
// inputs => well-separated index blocks under a good reordering => fast
// singular value decay of off-diagonal kernel blocks => small HSS ranks.
//
// A BlobSpec controls the statistical shape:
//  * `dim` ambient dimension, `latent_dim` intrinsic dimension (the cloud is
//    generated in the latent space and embedded with a random rotation, which
//    mimics high-dimensional image data like MNIST whose intrinsic dimension
//    is far below 784);
//  * `clusters_per_class` sub-clusters per class (real classes are rarely
//    unimodal);
//  * `center_spread` / `cluster_stddev` set the separation-to-noise ratio,
//    i.e. how hard classification is;
//  * `label_noise` flips that fraction of labels, capping attainable accuracy.

#include <string>

#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace khss::data {

struct BlobSpec {
  std::string name = "blobs";
  int n = 1000;
  int dim = 8;
  int latent_dim = 0;  // 0 => equal to dim (no embedding)
  int num_classes = 2;
  int clusters_per_class = 3;
  double center_spread = 3.0;   // stddev of cluster centers in latent space
  double cluster_stddev = 1.0;  // stddev of points around their center
  double label_noise = 0.0;     // fraction of labels flipped uniformly
};

/// Generate a labeled Gaussian-mixture dataset per the spec.
Dataset make_blobs(const BlobSpec& spec, util::Rng& rng);

}  // namespace khss::data
