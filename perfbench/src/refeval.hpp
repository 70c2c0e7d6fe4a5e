// The benchmark's own reference for every kernel job: an element-by-
// element walk of the kernel's dataflow graph with the scalar softfloat
// operations (FpValue), beside a double evaluation carrying a rigorous
// first-order rounding-error bound. It never touches the compiler,
// placer, router, execution plan, batch kernels or service, so a job's
// outputs are checked against arithmetic that shares nothing with the
// datapath under test except the scalar FpValue operations themselves.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vcgra/softfloat/fpformat.hpp"
#include "vcgra/vcgra/dfg.hpp"
#include "vcgra/vcgra/params.hpp"

namespace perfbench {

/// One kernel prepared for reference evaluation.
class RefKernel {
 public:
  /// Parse `text` and bind `overrides` over its param defaults.
  RefKernel(const std::string& text, const vcgra::overlay::ParamBinding& overrides,
            vcgra::softfloat::FpFormat format);

  struct Result {
    /// Output streams as format encodings, keyed by output name.
    std::map<std::string, std::vector<std::uint64_t>> bits;
    /// Elements that broke the double-evaluation bound (0 when correct).
    std::uint64_t bound_violations = 0;
    /// Largest |softfloat - double| / bound seen (<= 1 when correct).
    double worst_bound_ratio = 0;
  };

  /// Evaluate over equal-length input streams keyed by input name.
  Result run(const std::map<std::string, const std::vector<double>*>& inputs) const;

  /// Floating-point operations per sample the datapath must report
  /// (mul/add/sub count 1, a MAC step 2), and MAC steps per sample.
  std::uint64_t fp_ops_per_sample() const { return fp_ops_per_sample_; }
  std::uint64_t mac_ops_per_sample() const { return mac_ops_per_sample_; }
  /// Latency-weighted critical path (mul 3, add/sub 4, MAC 7, pass 1
  /// cycles, routing hops free): a lower bound on any placement's fill.
  int critical_path() const { return critical_path_; }
  /// Compute nodes (nodes that occupy a PE).
  int compute_nodes() const { return compute_nodes_; }
  const std::vector<std::string>& input_names() const { return input_names_; }

 private:
  struct Node {
    vcgra::overlay::OpKind kind = vcgra::overlay::OpKind::kPass;
    int a = -1;
    int b = -1;            // second stream operand, -1 when b is a coefficient
    double coeff = 0;      // coefficient value (mul by param, MAC)
    std::uint32_t count = 1;
    int input_slot = -1;   // kInput: index into input_names_
  };
  vcgra::softfloat::FpFormat format_;
  std::vector<Node> nodes_;  // topological (DFG node order)
  std::vector<std::string> input_names_;
  std::vector<std::pair<std::string, int>> outputs_;  // name -> source node
  std::uint64_t fp_ops_per_sample_ = 0;
  std::uint64_t mac_ops_per_sample_ = 0;
  int critical_path_ = 0;
  int compute_nodes_ = 0;
};

}  // namespace perfbench
