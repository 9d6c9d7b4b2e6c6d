#pragma once
// Where the packed GEMM core's configuration came from, as the repository
// benchmark's environment report prints it.  The configuration is fixed at
// compile time (la/gemm_kernel.hpp), so the answer is always "default".

#include <string>

namespace khss::la::detail {

struct GemmConfig {
  std::string source = "default";
};

inline GemmConfig resolve_gemm_config() { return {}; }

}  // namespace khss::la::detail
