// The microkernel dispatch, for the bit-identity tests: every kernel this
// host accepts, and a guard that restores detection however a test exits.
#pragma once

#include <string>
#include <vector>

#include "matrix/gemm.hpp"
#include "matrix/gemm_kernel.hpp"

namespace hetgrid {

struct KernelGuard {
  ~KernelGuard() { gemm_force_kernel("auto"); }
};

/// Every name in the dispatch list that gemm_force_kernel accepts on this
/// host, in dispatch order; leaves detection on "auto".
inline std::vector<std::string> accepted_kernels() {
  std::vector<std::string> names;
  for (const detail::KernelEntry& k : detail::kernel_list())
    if (gemm_force_kernel(k.name)) names.emplace_back(k.name);
  gemm_force_kernel("auto");
  return names;
}

/// The accepted kernels other than the scalar reference: the ones each
/// bit-identity test compares against it.
inline std::vector<std::string> simd_kernels() {
  std::vector<std::string> names = accepted_kernels();
  std::erase(names, "scalar");
  return names;
}

}  // namespace hetgrid
