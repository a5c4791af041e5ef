// CPU topology for the threaded driver's TaskPool: which logical CPUs
// belong to which NUMA node, so the pool can pin workers to their node
// and steal node-local first (docs/tasking.md).
//
// Detection reads /sys/devices/system/node/node*/cpulist (Linux). When
// no NUMA information is available (single-node machines, containers
// that mask /sys, non-Linux), the fallback groups CPUs into synthetic
// core clusters of kFallbackClusterCpus so locality-first stealing still
// has a meaningful neighbourhood.
#pragma once

#include <string>
#include <vector>

namespace bspmv {

struct Topology {
  struct Node {
    int id = 0;
    std::vector<int> cpus;  ///< logical CPU ids in this node, sorted
  };

  /// Non-empty; every node holds at least one CPU.
  std::vector<Node> nodes;
  int total_cpus = 1;
  bool numa_detected = false;  ///< true when /sys provided real nodes

  /// CPUs per synthetic cluster when NUMA detection fails.
  static constexpr int kFallbackClusterCpus = 8;

  /// Detect from /sys, falling back to synthetic clusters over
  /// hardware_concurrency(). Never throws; worst case is one node with
  /// one CPU.
  static Topology detect();

  /// Build the fallback directly (used by detect() and by tests that
  /// need a deterministic shape).
  static Topology clustered(int cpus, int per_cluster = kFallbackClusterCpus);

  /// Node index (position in `nodes`, not the node id) that worker
  /// `worker` of a `workers`-wide pool belongs to: workers are assigned
  /// to nodes in contiguous blocks, so neighbouring workers — which the
  /// task decomposition gives neighbouring row ranges — share a node.
  int node_of_worker(int worker, int workers) const;

  std::string to_string() const;
};

/// Parse a /sys cpulist string ("0-3,8,10-11") into sorted CPU ids.
/// Malformed chunks are skipped; never throws.
std::vector<int> parse_cpulist(const std::string& s);

}  // namespace bspmv
