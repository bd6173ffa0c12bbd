#include "core/chunked.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "codec/bytes.h"
#include "core/archive_detail.h"
#include "core/layout.h"
#include "ecc/reed_solomon.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32c.h"
#include "util/error.h"
#include "util/resource.h"
#include "util/thread_pool.h"

namespace dpz {

namespace {

using detail::ChunkedLayout;
using Bytes = std::span<const std::uint8_t>;
using Shards = std::vector<std::vector<std::uint8_t>>;

ChunkedLayout parse(Bytes container) {
  return detail::parse_layout<ChunkedLayout>(container);
}

Bytes frame_bytes(Bytes container, const ChunkedLayout& h, std::size_t f) {
  return detail::bytes_of(container, h.frames[f]);
}

// Frame payloads of parity group `g` as `container` holds them.
std::vector<Bytes> group_frames(Bytes container, const ChunkedLayout& h,
                                std::size_t g) {
  std::vector<Bytes> members;
  const std::size_t last = std::min((g + 1) * h.parity_k, h.frame_count);
  for (std::size_t f = g * h.parity_k; f < last; ++f)
    members.push_back(frame_bytes(container, h, f));
  return members;
}

// One group's data shards: every member payload zero-padded to
// `shard_size`, absent members of a short final group all-zero. Parity
// encode, repair, scrub and reconstruction all pad through here.
Shards padded_group(std::span<const Bytes> members, std::size_t k,
                    std::size_t shard_size) {
  Shards padded(k);
  for (std::size_t i = 0; i < k; ++i) {
    padded[i].assign(shard_size, 0);
    if (i < members.size())
      std::copy(members[i].begin(), members[i].end(), padded[i].begin());
  }
  return padded;
}

// The m parity shards of one group, with the padded copies charged to
// the memory governor while they live.
Shards group_parity(const ecc::RsCodec& codec, std::span<const Bytes> members,
                    std::size_t shard_size) {
  const std::size_t k = codec.data_shards();
  const ScopedCharge charge(static_cast<std::uint64_t>(k) * shard_size);
  const Shards padded = padded_group(members, k, shard_size);
  const std::vector<Bytes> spans(padded.begin(), padded.end());
  return codec.encode(spans);
}

// Breadcrumb context for one frame: its index and absolute byte offset
// inside the container, so error reports can name the failing bytes.
obs::LogContext frame_log_ctx(const ChunkedLayout& h, std::size_t f) {
  obs::LogContext ctx;
  ctx.offset = h.frames[f].offset;
  ctx.frame = f;
  ctx.section = "frame";
  return ctx;
}

// What a damaged frame the parity (if any) could not restore reports.
std::string frame_damage(const ChunkedLayout& h, std::size_t f) {
  return "chunked container: frame " + std::to_string(f) +
         " checksum mismatch" +
         (h.parity_m != 0 ? " (beyond the parity budget)" : "");
}

[[noreturn]] void throw_frame_damage(const ChunkedLayout& h, std::size_t f) {
  if (h.parity_m != 0)
    obs::log_error(obs::Event::kChecksumMismatch, StatusCode::kChecksum,
                   frame_log_ctx(h, f), "beyond the parity budget");
  throw ChecksumError(frame_damage(h, f));
}

// The one damage scan: CRC verdicts for a container's frames and parity
// shards, each checked at most once and only when first asked for. A
// random-access read therefore CRCs only the frame it needs unless that
// frame fails, while whole-container paths end up checking everything.
class DamageMap {
 public:
  DamageMap(Bytes container, const ChunkedLayout& h)
      : container_(container),
        h_(h),
        state_(h.frame_count + h.groups() * h.parity_m, kUnchecked) {}

  bool frame_bad(std::size_t f) { return bad(f, h_.frames[f]); }
  bool shard_bad(std::size_t g, std::size_t j) {
    return bad(h_.frame_count + g * h_.parity_m + j, h_.shard(g, j));
  }
  std::size_t bad_frames() {
    std::size_t n = 0;
    for (std::size_t f = 0; f < h_.frame_count; ++f) n += frame_bad(f);
    return n;
  }
  std::size_t bad_shards(std::size_t g) {
    std::size_t n = 0;
    for (std::size_t j = 0; j < h_.parity_m; ++j) n += shard_bad(g, j);
    return n;
  }

 private:
  enum : std::uint8_t { kUnchecked, kIntact, kDamaged };

  bool bad(std::size_t i, const detail::Section& s) {
    if (state_[i] == kUnchecked)
      state_[i] = detail::crc_ok(container_, s) ? kIntact : kDamaged;
    return state_[i] == kDamaged;
  }

  Bytes container_;
  const ChunkedLayout& h_;
  std::vector<std::uint8_t> state_;
};

// Outcome of repairing the damaged frames in a range: replacement bytes
// for every frame that reconstructed (and CRC-verified byte-exact),
// flags for the ones that did not.
struct RepairPlan {
  explicit RepairPlan(std::size_t frames)
      : replacement(frames), repaired(frames, 0), unrecovered(frames, 0) {}

  std::vector<std::vector<std::uint8_t>> replacement;  // per frame
  std::vector<std::uint8_t> repaired;     // per frame, 1 = replaced
  std::vector<std::uint8_t> unrecovered;  // per frame, 1 = still damaged
};

// The one repair plan. Every damaged frame in [first, last) is rebuilt
// by Reed-Solomon reconstruction from its group's surviving shards (a
// damaged parity shard is simply absent), and counts as repaired only
// once its bytes re-verify against the frame table's CRC32C — repair is
// byte-exact or it is a failure. kFramesRepaired / kRepairFailed count
// each damaged frame exactly once. Without parity every damaged frame is
// unrecovered. Callers pass whole groups.
RepairPlan plan_repairs(Bytes container, const ChunkedLayout& h,
                        DamageMap& damage, std::size_t first,
                        std::size_t last) {
  RepairPlan plan(h.frame_count);
  if (h.parity_m == 0) {
    for (std::size_t f = first; f < last; ++f) {
      if (!damage.frame_bad(f)) continue;
      plan.unrecovered[f] = 1;
      obs::log_error(obs::Event::kChecksumMismatch, StatusCode::kChecksum,
                     frame_log_ctx(h, f));
    }
    return plan;
  }
  const std::size_t k = h.parity_k;
  const ecc::RsCodec codec(k, h.parity_m);
  for (std::size_t g = first / k; g * k < last; ++g) {
    const std::size_t begin = g * k;
    const std::size_t end = std::min(begin + k, h.frame_count);
    bool any = false;
    for (std::size_t f = begin; f < end; ++f) any |= damage.frame_bad(f);
    if (!any) continue;
    governed_poll();
    const obs::ScopedSpan repair_span(obs::Span::kFrameRepair);
    const std::size_t shard_size = static_cast<std::size_t>(h.shard_sizes[g]);
    const ScopedCharge charge(static_cast<std::uint64_t>(k) * shard_size);
    const Shards padded =
        padded_group(group_frames(container, h, g), k, shard_size);
    std::vector<Bytes> shards(k + h.parity_m);
    std::vector<std::uint8_t> present(k + h.parity_m, 0);
    for (std::size_t i = 0; i < k; ++i) {
      if (begin + i < end && damage.frame_bad(begin + i)) continue;
      shards[i] = padded[i];
      present[i] = 1;
    }
    for (std::size_t j = 0; j < h.parity_m; ++j) {
      if (damage.shard_bad(g, j)) continue;
      shards[k + j] = detail::bytes_of(container, h.shard(g, j));
      present[k + j] = 1;
    }
    const bool enough =
        static_cast<std::size_t>(
            std::count(present.begin(), present.end(), 1)) >= k;
    const Shards data = enough ? codec.reconstruct(shards, present) : Shards{};
    for (std::size_t f = begin; f < end; ++f) {
      if (!damage.frame_bad(f)) continue;
      const obs::ScopedSpan frame_span(obs::Span::kFrameRepair);
      std::vector<std::uint8_t> bytes;
      if (enough)
        bytes.assign(data[f - begin].begin(),
                     data[f - begin].begin() +
                         static_cast<std::ptrdiff_t>(h.frames[f].size));
      if (enough && crc32c(bytes) == h.frames[f].stored_crc) {
        plan.replacement[f] = std::move(bytes);
        plan.repaired[f] = 1;
        obs::count(obs::Counter::kFramesRepaired);
        obs::log_event(obs::Event::kFrameRebuilt, obs::LogLevel::kInfo,
                       StatusCode::kOk, frame_log_ctx(h, f));
      } else {
        plan.unrecovered[f] = 1;
        obs::count(obs::Counter::kRepairFailed);
        obs::log_error(obs::Event::kFrameRepairFailed, StatusCode::kChecksum,
                       frame_log_ctx(h, f),
                       enough ? "reconstruction fails the stored checksum"
                              : "too few surviving shards");
      }
    }
  }
  return plan;
}

// Frame payload as the decoder should see it: the parity-reconstructed
// replacement when one exists, the stored bytes otherwise.
Bytes frame_view(Bytes container, const ChunkedLayout& h,
                 const RepairPlan& plan, std::size_t f) {
  if (plan.repaired[f] != 0) return plan.replacement[f];
  return frame_bytes(container, h, f);
}

// Pre-flight admission for a container decode: the header-claimed output
// (h.total elements, sealed by the v2 header CRC) is priced against the
// governing memory budget before any frame is decoded, so a forged shape
// is rejected with ResourceExhausted instead of sizing the output buffer.
// Frame working sets are charged per allocation as frames decode.
void admit_container(const ChunkedLayout& h, std::size_t elem_bytes) {
  if (const ResourceGovernor* g = current_governor())
    g->admit(static_cast<std::uint64_t>(h.total) * elem_bytes,
             "chunked container");
}

// Strict decodes' cheap header-only pre-pass: every frame claims its
// decoded size, and the claims must exactly tile the container's shape
// *before* any frame is decoded. This bounds transient memory by
// h.total — a forged container cannot make us decode an arbitrary sum
// of frames and only find out afterwards that they exceed the shape.
// The shape check outranks frame damage, except where the damage hides
// a frame's claim; an unrestored frame then fails as the damage it is.
void check_frames_tile_shape(Bytes container, const ChunkedLayout& h,
                             const RepairPlan& plan) {
  std::vector<std::uint64_t> claims(h.frame_count);
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    try {
      claims[f] = detail::element_count(
          dpz_inspect(frame_view(container, h, plan, f)).shape);
    } catch (const FormatError&) {
      if (plan.unrecovered[f] != 0) throw_frame_damage(h, f);
      throw;
    }
  }
  if (const std::string problem = detail::frames_tile_problem(h, claims);
      !problem.empty())
    throw FormatError(problem);
  for (std::size_t f = 0; f < h.frame_count; ++f)
    if (plan.unrecovered[f] != 0) throw_frame_damage(h, f);
}

// Whole-container decode under either policy. Damage is scanned and
// repaired first, so no payload reaches the DPZ decoder before its CRC
// (or its reconstruction's) passed. Frames then decode in parallel into
// per-frame buffers, with failures collected rather than rethrown by the
// pool so the error that surfaces is deterministically the lowest
// frame's. Best effort instead records a failed frame as lost and fills
// its slot with fill_value — unless the failure is a governance abort
// (cancel, deadline, budget), which fails the whole decode rather than
// masquerade as a salvageable lost frame.
template <typename T>
NdArray<T> decompress_with_policy(Bytes container,
                                  const ChunkedConfig& config,
                                  DecodeReport* report) {
  // Install the governor before the header parse so even table-sized
  // allocations and the admission pre-flight run governed.
  const GovernorScope governor_scope(config.dpz.limits);
  governed_poll();
  const ChunkedLayout h = parse(container);
  const ScopedThreads pool_scope(config.threads);
  admit_container(h, sizeof(T));
  DamageMap damage(container, h);
  const RepairPlan plan =
      plan_repairs(container, h, damage, 0, h.frame_count);
  const bool strict = config.decode_policy == DecodePolicy::kStrict;
  if (strict) check_frames_tile_shape(container, h, plan);

  std::vector<FloatArray> chunks(h.frame_count);
  std::vector<std::optional<std::string>> lost(h.frame_count);
  std::vector<std::exception_ptr> fatal(h.frame_count);
  parallel_for(0, h.frame_count, [&](std::size_t f) {
    const obs::ScopedSpan frame_span(obs::Span::kFrameDecode);
    if (plan.unrecovered[f] != 0) {
      lost[f] = frame_damage(h, f);
      return;
    }
    try {
      FloatArray chunk = dpz_decompress(frame_view(container, h, plan, f));
      const auto [begin, end] = h.slot(f);
      if (!strict && chunk.size() != end - begin)
        throw FormatError("chunked container: frame " + std::to_string(f) +
                          " does not match its slot");
      chunks[f] = std::move(chunk);
      obs::count(obs::Counter::kFramesDecoded);
    } catch (const Error& e) {
      if (strict || e.code() == StatusCode::kCancelled ||
          e.code() == StatusCode::kDeadlineExceeded ||
          e.code() == StatusCode::kResourceExhausted)
        fatal[f] = std::current_exception();
      else
        lost[f] = e.what();
    } catch (...) {
      fatal[f] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : fatal)
    if (e) std::rethrow_exception(e);

  // Concatenate in frame order: decoded frames tile the shape (checked
  // above for strict decodes, slot by slot for best effort), and a lost
  // frame's slot is filled. A reconstructed frame whose bytes then failed
  // to decode counts lost, not repaired (possible only when the original
  // archive stored an undecodable frame with a valid CRC).
  if (report != nullptr) {
    *report = DecodeReport{};
    report->frames_total = h.frame_count;
  }
  std::vector<T> values;
  values.reserve(h.total);
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    if (lost[f]) {
      const auto [begin, end] = h.slot(f);
      values.insert(values.end(), end - begin,
                    static_cast<T>(config.fill_value));
      obs::count(obs::Counter::kFramesLost);
      obs::log_event(obs::Event::kFrameLost, obs::LogLevel::kWarn,
                     StatusCode::kChecksum, frame_log_ctx(h, f), *lost[f]);
      if (report != nullptr) report->lost.push_back({f, *lost[f]});
      continue;
    }
    values.insert(values.end(), chunks[f].flat().begin(),
                  chunks[f].flat().end());
    if (!strict) obs::count(obs::Counter::kFramesRecovered);
    if (report == nullptr) continue;
    ++report->frames_recovered;
    if (plan.repaired[f] != 0) {
      ++report->frames_repaired;
      report->repaired.push_back(f);
    }
  }
  return NdArray<T>(h.shape, std::move(values));
}

}  // namespace

std::vector<std::uint8_t> chunked_compress(const FloatArray& data,
                                           const ChunkedConfig& config,
                                           ChunkedStats* stats) {
  DPZ_REQUIRE(config.chunk_values >= 8 &&
                  config.chunk_values <= detail::kMaxElements,
              "chunk must hold 8 to 2^40 values");
  DPZ_REQUIRE(data.size() >= 8, "chunked DPZ needs at least 8 values");
  const bool parity = config.parity_m > 0;
  DPZ_REQUIRE(!parity || (config.parity_k >= 1 &&
                          config.parity_k + config.parity_m <= 255),
              "parity geometry must satisfy 1 <= k and k + m <= 255");

  // One governor for the whole container: frames inherit it through
  // parallel_for (workers adopt the publisher's governor), so budget,
  // deadline, and cancel cover every frame without per-frame re-scoping.
  const GovernorScope governor_scope(config.dpz.limits);
  governed_poll();

  ChunkedStats local;
  ChunkedStats& st = stats != nullptr ? *stats : local;
  st = ChunkedStats{};
  st.original_bytes = data.size() * sizeof(float);

  // The container header doubles as the tiling: frame f holds slot(f)
  // of the expected_frame_count the parser will demand.
  ChunkedLayout h;
  h.shape = data.shape();
  h.total = data.size();
  h.chunk_values = config.chunk_values;
  h.frame_count = detail::expected_frame_count(h.total, h.chunk_values);
  h.frames.resize(h.frame_count);

  // Frames are independent (no cross-chunk state), so they compress in
  // parallel into pre-sized slots; each frame's bytes depend only on its
  // chunk and the config, never on the worker count or finish order.
  // Inner pipeline loops run inline on the frame's worker (nested
  // parallel_for), so the frame config must not spin up its own pool.
  const ScopedThreads pool_scope(config.threads);
  DpzConfig frame_config = config.dpz;
  frame_config.threads = 0;
  // Cleared like `threads`: each frame runs under the container governor
  // installed above rather than nesting a fresh per-frame one.
  frame_config.limits = ResourceLimits{};
  std::vector<std::vector<std::uint8_t>> frames(h.frame_count);
  std::vector<std::uint8_t> frame_stored_raw(h.frame_count, 0);
  parallel_for(0, h.frame_count, [&](std::size_t f) {
    const obs::ScopedSpan frame_span(obs::Span::kFrameEncode);
    const auto [begin, end] = h.slot(f);
    const std::span<const float> slice =
        data.flat().subspan(begin, end - begin);
    FloatArray chunk({slice.size()},
                     std::vector<float>(slice.begin(), slice.end()));
    DpzStats frame_stats;
    frames[f] = dpz_compress(chunk, frame_config, &frame_stats);
    h.frames[f].size = frames[f].size();
    h.frames[f].stored_crc = crc32c(frames[f]);
    frame_stored_raw[f] = frame_stats.stored_raw ? 1 : 0;
    obs::count(obs::Counter::kFramesEncoded);
    obs::observe(obs::Hist::kFrameBytes, frames[f].size());
  });
  for (const std::uint8_t raw : frame_stored_raw)
    if (raw != 0) ++st.stored_raw_frames;

  // Parity shards over the compressed payloads (format v3): groups of k
  // frames, each zero-padded to the group's largest frame; the shards
  // are deterministic functions of the frame bytes, so parity never
  // perturbs thread-count invariance.
  std::vector<Shards> parity_shards;
  if (parity) {
    h.parity_k = config.parity_k;
    h.parity_m = config.parity_m;
    const std::size_t k = h.parity_k;
    const ecc::RsCodec codec(k, h.parity_m);
    const std::vector<Bytes> payloads(frames.begin(), frames.end());
    h.shard_sizes.resize(h.groups(), 0);
    parity_shards.resize(h.groups());
    for (std::size_t g = 0; g < h.groups(); ++g) {
      governed_poll();
      const obs::ScopedSpan repair_span(obs::Span::kFrameRepair);
      const std::span<const Bytes> members = std::span(payloads).subspan(
          g * k, std::min(k, frames.size() - g * k));
      for (const Bytes frame : members)
        h.shard_sizes[g] =
            std::max<std::uint64_t>(h.shard_sizes[g], frame.size());
      parity_shards[g] = group_parity(
          codec, members, static_cast<std::size_t>(h.shard_sizes[g]));
      for (const auto& shard : parity_shards[g])
        h.parity_crcs.push_back(crc32c(shard));
    }
  }

  ByteWriter w;
  detail::put_header(w, h);
  for (const auto& frame : frames) w.put_bytes(frame);
  for (const auto& group : parity_shards)
    for (const auto& shard : group) w.put_bytes(shard);

  std::vector<std::uint8_t> out = w.take();
  st.frame_count = h.frame_count;
  st.archive_bytes = out.size();
  return out;
}

FloatArray chunked_decompress(std::span<const std::uint8_t> container,
                              unsigned threads) {
  ChunkedConfig config;
  config.threads = threads;
  return decompress_with_policy<float>(container, config, nullptr);
}

FloatArray chunked_decompress(std::span<const std::uint8_t> container,
                              const ChunkedConfig& config,
                              DecodeReport* report) {
  return decompress_with_policy<float>(container, config, report);
}

DoubleArray chunked_decompress_f64(std::span<const std::uint8_t> container,
                                   const ChunkedConfig& config,
                                   DecodeReport* report) {
  return decompress_with_policy<double>(container, config, report);
}

ChunkView chunked_decompress_frame(std::span<const std::uint8_t> container,
                                   std::size_t frame_index) {
  const ChunkedLayout h = parse(container);
  DPZ_REQUIRE(frame_index < h.frame_count, "frame index out of range");

  // Same self-healing contract as whole-container decode: a damaged
  // frame in a parity-carrying container is reconstructed from its
  // group before the random-access path gives up on it.
  DamageMap damage(container, h);
  Bytes frame = frame_bytes(container, h, frame_index);
  RepairPlan plan(0);
  if (damage.frame_bad(frame_index)) {
    const std::size_t group = h.parity_m == 0 ? 1 : h.parity_k;
    const std::size_t first = frame_index / group * group;
    plan = plan_repairs(container, h, damage, first,
                        std::min(first + group, h.frame_count));
    if (plan.repaired[frame_index] == 0)
      throw_frame_damage(h, frame_index);
    frame = plan.replacement[frame_index];
  }
  const FloatArray chunk = dpz_decompress(frame);

  ChunkView view;
  view.frame_index = frame_index;
  view.value_offset = h.slot(frame_index).first;
  view.values.assign(chunk.flat().begin(), chunk.flat().end());
  return view;
}

std::size_t chunked_frame_count(std::span<const std::uint8_t> container) {
  return parse(container).frame_count;
}

std::vector<std::uint8_t> chunked_repair(
    std::span<const std::uint8_t> container, RepairReport* report) {
  governed_poll();
  const obs::ScopedSpan archive_span(obs::Span::kArchiveRepair);
  const ChunkedLayout h = parse(container);
  RepairReport local;
  RepairReport& rep = report != nullptr ? *report : local;
  rep = RepairReport{};
  rep.frames_total = h.frame_count;

  DamageMap damage(container, h);
  const std::size_t bad_frames = damage.bad_frames();
  std::size_t bad_shards = 0;
  for (std::size_t g = 0; g < h.groups(); ++g)
    bad_shards += damage.bad_shards(g);
  if (bad_frames == 0 && bad_shards == 0)
    return {container.begin(), container.end()};
  if (h.parity_m == 0) {
    obs::log_error(obs::Event::kFrameRepairFailed, StatusCode::kChecksum,
                   {}, "no parity to repair from");
    throw ChecksumError(
        "chunked container: damaged frames and no parity to repair from");
  }

  const RepairPlan plan =
      plan_repairs(container, h, damage, 0, h.frame_count);
  for (std::size_t f = 0; f < h.frame_count; ++f)
    if (plan.unrecovered[f] != 0) throw_frame_damage(h, f);
  const ScopedCharge charge(container.size());
  std::vector<std::uint8_t> healed(container.begin(), container.end());
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    if (plan.repaired[f] == 0) continue;
    std::copy(plan.replacement[f].begin(), plan.replacement[f].end(),
              healed.begin() + static_cast<std::ptrdiff_t>(h.frames[f].offset));
    rep.frames_repaired.push_back(f);
  }

  // Rebuild damaged parity shards from the (now intact) frame payloads;
  // each must re-verify against its header-sealed CRC, proving the
  // healed archive is byte-identical to the pre-damage one.
  const ecc::RsCodec codec(h.parity_k, h.parity_m);
  for (std::size_t g = 0; g < h.groups(); ++g) {
    if (damage.bad_shards(g) == 0) continue;
    governed_poll();
    const obs::ScopedSpan repair_span(obs::Span::kFrameRepair);
    const Shards parity =
        group_parity(codec, group_frames(healed, h, g),
                     static_cast<std::size_t>(h.shard_sizes[g]));
    for (std::size_t j = 0; j < h.parity_m; ++j) {
      if (!damage.shard_bad(g, j)) continue;
      const detail::Section shard = h.shard(g, j);
      if (crc32c(parity[j]) != shard.stored_crc) {
        obs::LogContext ctx;
        ctx.offset = shard.offset;
        ctx.section = "parity";
        obs::log_error(obs::Event::kChecksumMismatch, StatusCode::kChecksum,
                       ctx, "rebuilt parity shard fails its stored checksum");
        throw ChecksumError(
            "chunked container: rebuilt parity shard fails its stored "
            "checksum");
      }
      std::copy(parity[j].begin(), parity[j].end(),
                healed.begin() + static_cast<std::ptrdiff_t>(shard.offset));
      ++rep.parity_shards_repaired;
    }
  }
  return healed;
}

ScrubReport chunked_scrub(std::span<const std::uint8_t> container) {
  governed_poll();
  const obs::ScopedSpan archive_span(obs::Span::kArchiveRepair);
  const ChunkedLayout h = parse(container);
  ScrubReport s;
  s.frames_total = h.frame_count;
  s.parity_k = h.parity_k;
  s.parity_m = h.parity_m;
  s.groups = h.groups();

  DamageMap damage(container, h);
  s.frames_damaged = damage.bad_frames();
  for (std::size_t g = 0; g < s.groups; ++g)
    s.parity_shards_damaged += damage.bad_shards(g);
  if (h.parity_m == 0) return s;

  // Consistency audit: recompute each fully-intact group's parity from
  // the stored payloads and compare it to the intact stored shards —
  // no frame is ever decoded.
  const ecc::RsCodec codec(h.parity_k, h.parity_m);
  for (std::size_t g = 0; g < s.groups; ++g) {
    const std::size_t begin = g * h.parity_k;
    const std::size_t end = std::min(begin + h.parity_k, h.frame_count);
    bool inputs_ok = true;
    for (std::size_t f = begin; f < end; ++f)
      inputs_ok &= !damage.frame_bad(f);
    if (!inputs_ok) continue;
    governed_poll();
    const obs::ScopedSpan group_span(obs::Span::kFrameRepair);
    const Shards parity =
        group_parity(codec, group_frames(container, h, g),
                     static_cast<std::size_t>(h.shard_sizes[g]));
    for (std::size_t j = 0; j < h.parity_m; ++j) {
      if (damage.shard_bad(g, j)) continue;
      const Bytes stored = detail::bytes_of(container, h.shard(g, j));
      if (!std::equal(parity[j].begin(), parity[j].end(), stored.begin(),
                      stored.end()))
        ++s.parity_mismatches;
    }
  }
  return s;
}

ParityInfo chunked_parity_info(std::span<const std::uint8_t> container) {
  const ChunkedLayout h = parse(container);
  ParityInfo info;
  info.parity_k = h.parity_k;
  info.parity_m = h.parity_m;
  info.groups = h.groups();
  for (const std::uint64_t shard_size : h.shard_sizes)
    info.parity_bytes += h.parity_m * shard_size;
  return info;
}

DecodePreflight chunked_decode_preflight(
    std::span<const std::uint8_t> container) {
  const ChunkedLayout h = parse(container);
  DecodePreflight pf;
  pf.decoded_bytes =
      static_cast<std::uint64_t>(h.total) * sizeof(float);
  // Serial-decode peak: the output buffer plus the most expensive single
  // frame's transient working set (frames are decoded one slot at a
  // time; a parallel decode can hold up to `threads` frames in flight,
  // which the runtime per-allocation charges still bound exactly).
  std::uint64_t worst_frame = 0;
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    const DpzArchiveInfo info = dpz_inspect(frame_bytes(container, h, f));
    worst_frame =
        std::max(worst_frame, dpz_decode_preflight(info).peak_bytes);
  }
  pf.peak_bytes = pf.decoded_bytes > UINT64_MAX - worst_frame
                      ? UINT64_MAX
                      : pf.decoded_bytes + worst_frame;
  return pf;
}

}  // namespace dpz
