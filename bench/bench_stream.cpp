// Ablation / calibration: effective memory bandwidth (STREAM triad and
// read-only) across working-set sizes, plus the dependent-load latency —
// the machine-side input of eq. (1) and its context. Useful for
// sanity-checking a machine profile against the cache hierarchy.
#include <cstdio>

#include "src/profile/cache_info.hpp"
#include "src/profile/stream_bench.hpp"
#include "src/util/cli.hpp"

using namespace bspmv;

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_option("sizes", "8,32,64,128", "array MiB sizes to test");
  cli.add_option("trials", "3", "best-of-k trials per size");
  if (!cli.parse(argc, argv)) return 0;

  const CacheInfo cache = detect_cache_info();
  std::printf("cache hierarchy: L1d=%zu KiB, LLC=%zu KiB (%s)\n",
              cache.l1d_bytes / 1024, cache.llc_bytes / 1024,
              cache.detected ? "detected" : "fallback");

  std::printf("%-12s %14s %14s\n", "array size", "triad (GiB/s)",
              "read (GiB/s)");
  std::string s = cli.get("sizes");
  for (std::size_t pos = 0; pos < s.size();) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t mib =
        static_cast<std::size_t>(std::stoul(s.substr(pos, comma - pos)));
    pos = comma == std::string::npos ? s.size() : comma + 1;

    StreamOptions opt;
    opt.array_bytes = mib << 20;
    opt.trials = static_cast<int>(cli.get_int("trials"));
    std::printf("%9zu MB %14.2f %14.2f\n", mib,
                stream_triad_bandwidth(opt) / (1u << 30),
                stream_read_bandwidth(opt) / (1u << 30));
  }

  std::printf("dependent-load latency (64 MiB chase): %.1f ns\n",
              memory_latency_seconds(64u << 20) * 1e9);
  return 0;
}
