#include "src/formats/stats.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/formats/band_scan.hpp"
#include "src/observe/observe.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

namespace {

void add(BlockingStats& to, const BlockingStats& from) {
  to.padded.blocks += from.padded.blocks;
  to.padded.stored_values += from.padded.stored_values;
  to.padded.covered_nnz += from.padded.covered_nnz;
  to.dec.full.blocks += from.dec.full.blocks;
  to.dec.full.stored_values += from.dec.full.stored_values;
  to.dec.full.covered_nnz += from.dec.full.covered_nnz;
  to.dec.remainder_nnz += from.dec.remainder_nnz;
}

// Fold one band's distinct keys into both layouts of a blocking of
// `elems`-element blocks, zeroing their counters.
void tally(std::uint32_t* count, const std::uint32_t* keys,
           std::size_t distinct, std::size_t elems, BlockingStats& st) {
  st.padded.blocks += distinct;
  st.padded.stored_values += distinct * elems;
  for (std::size_t t = 0; t < distinct; ++t) {
    const std::size_t c = count[keys[t]];
    count[keys[t]] = 0;
    st.padded.covered_nnz += c;
    if (c == elems) {
      st.dec.full.blocks += 1;
      st.dec.full.stored_values += elems;
      st.dec.full.covered_nnz += c;
    } else {
      st.dec.remainder_nnz += c;
    }
  }
}

// One band scan fills both layouts of a blocking (band_scan.hpp).
template <class V, class Blocking>
BlockingStats blocking_stats(const Csr<V>& a, const Blocking& blk) {
  BSPMV_OBS_COUNT("select.stats_scans", 1);
  std::vector<std::uint32_t> count(blk.keys(a.cols()), 0);
  std::vector<std::uint32_t> touched(
      detail::widest_band(a, static_cast<std::size_t>(blk.band)));
  BlockingStats st;
  detail::scan_bands(a, blk, 0, static_cast<std::size_t>(a.rows()),
                     std::span(count), 0, std::span(touched),
                     [&](std::size_t, std::size_t, const std::uint32_t* keys,
                         std::size_t distinct) {
                       tally(count.data(), keys, distinct, blk.elems, st);
                     });
  return st;
}

// The key counters of one fused scan's blockings, end to end: BCSR h×c
// for each c `want` names in increasing c (cols/c + 1 keys), then BCSD
// (cols + h keys).
std::size_t fused_keys(index_t cols, int h, detail::HeightBlockings want) {
  const auto n = static_cast<std::size_t>(cols);
  std::size_t keys = want.bcsd ? n + static_cast<std::size_t>(h) : 0;
  for (int c = 1; c <= kMaxBlockElems; ++c)
    if (want.bcsr >> (c - 1) & 1u) keys += n / static_cast<std::size_t>(c) + 1;
  return keys;
}

// One blocking's counters and key list inside a fused scan, with its
// block and full-block counts so far.
struct Lane {
  std::uint8_t* count = nullptr;
  std::uint32_t* keys = nullptr;
  std::size_t distinct = 0;  ///< keys of the current band
  std::size_t blocks = 0;
  std::size_t full = 0;
};

// Count one occurrence of `key`. The counter saturates at Elems + 1: a
// block is full when its key occurs exactly Elems times, and nothing
// else about the count matters (a blocking covers every nonzero).
template <std::size_t Elems>
void count_key(Lane& l, std::uint32_t key) {
  std::uint8_t& c = l.count[key];
  l.keys[l.distinct] = key;
  l.distinct += c == 0;
  c = static_cast<std::uint8_t>(c + (c <= Elems));
}

// Close a band: add its blocks and full blocks, zero its counters.
template <std::size_t Elems>
void close_band(Lane& l) {
  std::size_t full = 0;
  for (std::size_t t = 0; t < l.distinct; ++t) {
    full += l.count[l.keys[t]] == Elems;
    l.count[l.keys[t]] = 0;
  }
  l.blocks += l.distinct;
  l.full += full;
  l.distinct = 0;
}

// Add a lane's counts over `nnz` nonzeros to both layouts of its blocking.
void add_lane(const Lane& l, std::size_t elems, std::size_t nnz,
              BlockingStats& st) {
  st.padded.blocks += l.blocks;
  st.padded.stored_values += l.blocks * elems;
  st.padded.covered_nnz += nnz;
  st.dec.full.blocks += l.full;
  st.dec.full.stored_values += l.full * elems;
  st.dec.full.covered_nnz += l.full * elems;
  st.dec.remainder_nnz += nnz - l.full * elems;
}

// Calls f(std::integral_constant<int, I>) for I = 1..N.
template <int N, class F>
void for_each_width(F&& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) {
    (f(std::integral_constant<int, I + 1>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

// The fused scan of band height H: one walk over each band's nonzeros
// counts every blocking `want` names, each in its own lane, with the
// block widths (and so the key divisions) known at compile time.
template <int H, class V>
void fused_scan(const Csr<V>& a, detail::HeightBlockings want,
                std::size_t lo, std::size_t hi, detail::ScanScratch& s,
                detail::HeightStats& out) {
  constexpr int kWidths = kMaxBlockElems / H;
  BSPMV_DBG_ASSERT(lo % H == 0);
  BSPMV_DBG_ASSERT((want.bcsr >> kWidths) == 0);
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  const auto cols = static_cast<std::size_t>(a.cols());
  const auto lanes = static_cast<std::size_t>(want.size());
  BSPMV_DBG_ASSERT(fused_keys(a.cols(), H, want) <= s.count.size());
  const std::size_t list = lanes == 0 ? 0 : s.touched.size() / lanes;
  // lane[c - 1]: BCSR H×c; lane[kWidths]: BCSD of length H.
  std::array<Lane, kWidths + 1> lane{};
  std::uint8_t* count = s.count.data();
  std::uint32_t* keys = s.touched.data();
  auto place = [&](Lane& l, std::size_t nkeys) {
    l.count = count;
    l.keys = keys;
    count += nkeys;
    keys += list;
  };
  for_each_width<kWidths>([&](auto c) {
    if (want.bcsr >> (c - 1) & 1u) place(lane[c - 1], cols / c + 1);
  });
  if (want.bcsd) place(lane[kWidths], cols + H);

  for (std::size_t b0 = lo; b0 < hi; b0 += H) {
    const std::size_t b1 = std::min(hi, b0 + static_cast<std::size_t>(H));
    BSPMV_DBG_ASSERT(static_cast<std::size_t>(row_ptr[b1] - row_ptr[b0]) <=
                     list);
    for (std::size_t i = b0; i < b1; ++i) {
      // BCSD's key is j + (H - 1 - di); see BcsdBlocking.
      const auto shift = static_cast<std::uint32_t>(H - 1 - (i - b0));
      for (auto k = static_cast<std::size_t>(row_ptr[i]);
           k < static_cast<std::size_t>(row_ptr[i + 1]); ++k) {
        const auto j = static_cast<std::uint32_t>(col_ind[k]);
        for_each_width<kWidths>([&](auto c) {
          if (want.bcsr >> (c - 1) & 1u)
            count_key<H * c>(lane[c - 1], j / static_cast<std::uint32_t>(c));
        });
        if (want.bcsd) count_key<H>(lane[kWidths], j + shift);
      }
    }
    for_each_width<kWidths>([&](auto c) {
      if (want.bcsr >> (c - 1) & 1u) close_band<H * c>(lane[c - 1]);
    });
    if (want.bcsd) close_band<H>(lane[kWidths]);
  }
  const auto nnz = static_cast<std::size_t>(row_ptr[hi] - row_ptr[lo]);
  for_each_width<kWidths>([&](auto c) {
    if (want.bcsr >> (c - 1) & 1u)
      add_lane(lane[c - 1], H * c, nnz, out.bcsr[c - 1]);
  });
  if (want.bcsd) add_lane(lane[kWidths], H, nnz, out.bcsd);
}

}  // namespace

namespace detail {

template <class V>
ScanScratch scan_scratch(const Csr<V>& a, const HeightPlan& plan) {
  std::size_t count = 0, touched = 0;
  for (int h = 1; h <= kMaxBlockElems; ++h) {
    const HeightBlockings want = plan[static_cast<std::size_t>(h - 1)];
    if (want.size() == 0) continue;
    const std::size_t widest = widest_band(a, static_cast<std::size_t>(h));
    count = std::max(count, fused_keys(a.cols(), h, want));
    touched = std::max(touched,
                       static_cast<std::size_t>(want.size()) * widest);
  }
  ScanScratch s;
  s.count.assign(count, 0);
  s.touched.resize(touched);
  return s;
}

template <class V>
void add_height_stats(const Csr<V>& a, int h, HeightBlockings want,
                      std::size_t lo, std::size_t hi, ScanScratch& scratch,
                      HeightStats& out) {
  switch (h) {
    case 1: return fused_scan<1>(a, want, lo, hi, scratch, out);
    case 2: return fused_scan<2>(a, want, lo, hi, scratch, out);
    case 3: return fused_scan<3>(a, want, lo, hi, scratch, out);
    case 4: return fused_scan<4>(a, want, lo, hi, scratch, out);
    case 5: return fused_scan<5>(a, want, lo, hi, scratch, out);
    case 6: return fused_scan<6>(a, want, lo, hi, scratch, out);
    case 7: return fused_scan<7>(a, want, lo, hi, scratch, out);
    case 8: return fused_scan<8>(a, want, lo, hi, scratch, out);
  }
  BSPMV_CHECK_MSG(false, "band height must be in 1..8");
}

template <class V>
std::array<HeightStats, kMaxBlockElems> height_stats(const Csr<V>& a,
                                                     const HeightPlan& plan) {
  std::vector<int> heights;
  [[maybe_unused]] std::size_t blockings = 0;
  for (int h = 1; h <= kMaxBlockElems; ++h) {
    const int size = plan[static_cast<std::size_t>(h - 1)].size();
    if (size == 0) continue;
    heights.push_back(h);
    blockings += static_cast<std::size_t>(size);
  }
  BSPMV_OBS_COUNT("select.stats_scans", blockings);
  // Every slot scans in buffers this thread allocates (and frees), so no
  // scan leaves memory behind in a worker's malloc arena.
  const auto pool = setup_pool();
  const auto slots = static_cast<std::size_t>(pool->workers());
  const std::vector<std::size_t> chunk = row_chunks(a, slots);
  ScanScratch first = scan_scratch(a, plan);
  std::vector<ScanScratch> scratch(slots - 1, first);
  scratch.push_back(std::move(first));
  std::vector<std::array<HeightStats, kMaxBlockElems>> part(slots);
  // Chunk-major: a slot's home tasks cover its rows at every height.
  const std::size_t nh = heights.size();
  run_slots(pool.get(), slots, (chunk.size() - 1) * nh,
            [&](std::uint32_t t, std::size_t w) {
              const std::size_t c = t / nh;
              const int h = heights[t % nh];
              const auto hi = static_cast<std::size_t>(h - 1);
              add_height_stats(a, h, plan[hi], chunk[c], chunk[c + 1],
                               scratch[w], part[w][hi]);
            });
  std::array<HeightStats, kMaxBlockElems> sum{};
  for (const auto& p : part)
    for (std::size_t hi = 0; hi < sum.size(); ++hi) {
      for (std::size_t c = 0; c < sum[hi].bcsr.size(); ++c)
        add(sum[hi].bcsr[c], p[hi].bcsr[c]);
      add(sum[hi].bcsd, p[hi].bcsd);
    }
  return sum;
}

}  // namespace detail

template <class V>
BlockingStats bcsr_blocking_stats(const Csr<V>& a, BlockShape shape) {
  BSPMV_CHECK(shape.r >= 1 && shape.c >= 1);
  return blocking_stats(a, detail::BcsrBlocking(shape));
}

template <class V>
BlockingStats bcsd_blocking_stats(const Csr<V>& a, int b) {
  BSPMV_CHECK(b >= 1);
  return blocking_stats(a, detail::BcsdBlocking(b));
}

template <class V>
BlockStats bcsr_stats(const Csr<V>& a, BlockShape shape) {
  return bcsr_blocking_stats(a, shape).padded;
}

template <class V>
DecompStats bcsr_dec_stats(const Csr<V>& a, BlockShape shape) {
  return bcsr_blocking_stats(a, shape).dec;
}

template <class V>
BlockStats bcsd_stats(const Csr<V>& a, int b) {
  return bcsd_blocking_stats(a, b).padded;
}

template <class V>
DecompStats bcsd_dec_stats(const Csr<V>& a, int b) {
  return bcsd_blocking_stats(a, b).dec;
}

template <class V>
std::size_t vbl_block_count(const Csr<V>& a) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  std::size_t blocks = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const index_t lo = row_ptr[static_cast<std::size_t>(i)];
    const index_t hi = row_ptr[static_cast<std::size_t>(i) + 1];
    index_t k = lo;
    while (k < hi) {
      index_t run = 1;
      while (k + run < hi &&
             col_ind[static_cast<std::size_t>(k + run)] ==
                 col_ind[static_cast<std::size_t>(k + run - 1)] + 1 &&
             run < kVblMaxBlock)
        ++run;
      ++blocks;
      k += run;
    }
  }
  return blocks;
}

#define BSPMV_INST(V)                                                     \
  template detail::ScanScratch detail::scan_scratch(                      \
      const Csr<V>&, const detail::HeightPlan&);                          \
  template void detail::add_height_stats(                                 \
      const Csr<V>&, int, detail::HeightBlockings, std::size_t,           \
      std::size_t, detail::ScanScratch&, detail::HeightStats&);           \
  template std::array<detail::HeightStats, kMaxBlockElems>                \
  detail::height_stats(const Csr<V>&, const detail::HeightPlan&);
BSPMV_INST(float)
BSPMV_INST(double)
#undef BSPMV_INST
template BlockingStats bcsr_blocking_stats(const Csr<float>&, BlockShape);
template BlockingStats bcsr_blocking_stats(const Csr<double>&, BlockShape);
template BlockingStats bcsd_blocking_stats(const Csr<float>&, int);
template BlockingStats bcsd_blocking_stats(const Csr<double>&, int);
template BlockStats bcsr_stats(const Csr<float>&, BlockShape);
template BlockStats bcsr_stats(const Csr<double>&, BlockShape);
template DecompStats bcsr_dec_stats(const Csr<float>&, BlockShape);
template DecompStats bcsr_dec_stats(const Csr<double>&, BlockShape);
template BlockStats bcsd_stats(const Csr<float>&, int);
template BlockStats bcsd_stats(const Csr<double>&, int);
template DecompStats bcsd_dec_stats(const Csr<float>&, int);
template DecompStats bcsd_dec_stats(const Csr<double>&, int);
template std::size_t vbl_block_count(const Csr<float>&);
template std::size_t vbl_block_count(const Csr<double>&);

}  // namespace bspmv
