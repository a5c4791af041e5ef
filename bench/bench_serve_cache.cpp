// Serving-cache payoff: cold engine preparation vs a cache hit.
//
// This is the number that justifies the daemon's existence — preparation
// (conversion + measured selection) costs orders of magnitude more than
// an LRU lookup, so a long-lived server amortises it across every
// request for the same matrix. The report prints both latencies, their
// ratio, and the cache hit/miss/eviction counters, plus an eviction
// storm showing the byte budget holding under pressure.
//
// Output: one JSON document on stdout (schema kind=bench_serve_cache).
// The acceptance bar for the serving PR is ratio >= 10; the observed
// ratio is typically in the thousands.

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/gen/generators.hpp"
#include "src/serve/engine_cache.hpp"
#include "src/util/cli.hpp"
#include "src/util/json.hpp"
#include "src/util/timing.hpp"

using namespace bspmv;
using namespace bspmv::serve;

namespace {

Csr<double> make_matrix(index_t n, std::uint64_t seed) {
  return Csr<double>::from_coo(
      gen_blocked_band<double>(n / 4, 4, 8, 3, 0.8, seed));
}

std::shared_ptr<const CachedEngine> build_entry(const Csr<double>& a,
                                                bool measure) {
  Timer t;
  std::vector<Candidate> ranked = model_candidates(true);
  if (measure) {
    // The daemon's measured selection: time each candidate briefly.
    MeasureOptions opt;
    opt.iterations = 3;
    opt.reps = 1;
    double best = 1e300;
    Candidate chosen = ranked.front();
    for (const Candidate& c : ranked) {
      auto f = try_convert(a, c);
      if (!f) continue;
      const double s = SpmvEngine<double>::borrow(*f).measure(opt).min;
      if (s < best) {
        best = s;
        chosen = c;
      }
    }
    ranked.assign(1, chosen);
  }
  SpmvEngine<double> engine = SpmvEngine<double>::prepare(a, ranked);
  CachedEngine e{matrix_key(a),
                 std::move(engine),
                 /*format_id=*/"",
                 /*fallback=*/false,
                 /*degraded=*/false,
                 /*bytes=*/0,
                 /*prepare_seconds=*/0.0};
  e.format_id = e.engine.format().candidate().id();
  e.bytes = e.engine.format().working_set_bytes();
  e.prepare_seconds = t.elapsed();
  return std::make_shared<const CachedEngine>(std::move(e));
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_option("n", "8192", "matrix dimension");
  cli.add_option("lookups", "1000", "cache lookups to time per matrix");
  cli.add_flag("no-measure", "skip measured selection in the cold prepare");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const index_t n = static_cast<index_t>(cli.get_int("n"));
    const int lookups = static_cast<int>(cli.get_int("lookups"));
    const bool measure = !cli.get_flag("no-measure");

    const Csr<double> a = make_matrix(n, 42);
    EngineCache cache(std::size_t{256} << 20);

    // Cold: what a first-time submit costs the daemon.
    Timer t_cold;
    auto entry = build_entry(a, measure);
    const double cold_s = t_cold.elapsed();
    cache.insert(entry);

    // Hit: what every later request costs.
    const MatrixKey key = matrix_key(a);
    bool lost = false;
    const double hit_s =
        Measurement{.batches = 1,
                    .warmup = 0,
                    .iterations = static_cast<std::uint64_t>(lookups)}
            .run([&] { lost = lost || !cache.find(key); })
            .min;
    if (lost) {
      std::fprintf(stderr, "cache lost the entry\n");
      return 1;
    }

    // Eviction storm: insert matrices until the byte budget forces the
    // original out, demonstrating bounded memory.
    EngineCache small(entry->bytes * 2 + entry->bytes / 2);
    small.insert(entry);
    int inserted = 0;
    while (small.find(key) != nullptr && inserted < 8) {
      small.insert(build_entry(make_matrix(n, 100 + inserted), false));
      ++inserted;
    }
    const auto small_stats = small.stats();

    const auto stats = cache.stats();
    Json::Object c;
    c["hits"] = stats.hits;
    c["misses"] = stats.misses;
    c["evictions"] = stats.evictions;
    c["collisions"] = stats.collisions;
    c["bytes"] = static_cast<std::uint64_t>(stats.bytes);

    Json::Object storm;
    storm["budget_bytes"] = static_cast<std::uint64_t>(small_stats.budget_bytes);
    storm["bytes"] = static_cast<std::uint64_t>(small_stats.bytes);
    storm["evictions"] = small_stats.evictions;
    storm["inserted_until_evicted"] = inserted;
    storm["stayed_within_budget"] =
        small_stats.bytes <= small_stats.budget_bytes;

    Json::Object o;
    o["kind"] = "bench_serve_cache";
    o["schema_version"] = 1;
    o["rows"] = static_cast<std::int64_t>(a.rows());
    o["nnz"] = static_cast<std::uint64_t>(a.nnz());
    o["format"] = entry->format_id;
    o["measured_selection"] = measure;
    o["cold_prepare_seconds"] = cold_s;
    o["cache_hit_seconds"] = hit_s;
    o["cold_over_hit_ratio"] = hit_s > 0 ? cold_s / hit_s : 0.0;
    o["cache"] = std::move(c);
    o["eviction_storm"] = std::move(storm);
    std::printf("%s\n", Json(std::move(o)).dump(2).c_str());

    if (cold_s < hit_s * 10.0) {
      std::fprintf(stderr,
                   "cache hit is not >=10x cheaper than cold prepare "
                   "(cold=%.6fs hit=%.9fs)\n",
                   cold_s, hit_s);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve_cache: %s\n", e.what());
    return 1;
  }
}
