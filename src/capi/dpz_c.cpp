#include "capi/dpz_c.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <string>

#include "core/chunked.h"
#include "core/dpz.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/resource.h"

/* Opaque cancel-token handle: a CancelSource whose token the options
 * translation hands to the pipeline (dpz_c.h). */
struct dpz_cancel_token {
  dpz::CancelSource source;
};

namespace {

thread_local std::string g_last_error;

int set_error(int code, const char* what) {
  g_last_error = what;
  return code;
}

int translate_exception() {
  try {
    throw;
  } catch (const dpz::Error& e) {
    // dpz::StatusCode values mirror the DPZ_* enum, so the classification
    // every dpz exception carries crosses the boundary unchanged. The
    // breadcrumb marks where the error left the library.
    dpz::obs::log_error(dpz::obs::Event::kErrorRaised, e.code(), {},
                        e.what());
    return set_error(static_cast<int>(e.code()), e.what());
  } catch (const std::bad_alloc&) {
    // The allocator gave out before (or without) a configured budget
    // tripping. Same caller remedy as an admission rejection — free
    // memory or lower the working set — so it maps to the same status
    // instead of aborting through an unhandled exception.
    return set_error(DPZ_ERR_RESOURCE, "allocation failed (out of memory)");
  } catch (const std::exception& e) {
    return set_error(DPZ_ERR_INTERNAL, e.what());
  } catch (...) {
    return set_error(DPZ_ERR_INTERNAL, "unknown error");
  }
}

// Honors opt->trace_path for the span of one API call: telemetry goes on
// for the call's duration and the trace is flushed to the file on the way
// out. A flush failure never fails the primary operation — the archive or
// reconstruction the caller asked for exists either way — it leaves a
// note in dpz_last_error() instead (documented in dpz_c.h).
class TraceScope {
 public:
  explicit TraceScope(const dpz_options* opt) {
    if (opt != nullptr && opt->trace_path != nullptr) {
      path_ = opt->trace_path;
      enabled_.emplace(true);
    }
  }
  ~TraceScope() {
    if (!path_.empty() &&
        !dpz::obs::TraceRecorder::instance().write_file(path_))
      g_last_error = "failed to write trace file: " + path_;
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::string path_;
  std::optional<dpz::obs::ScopedTelemetry> enabled_;
};

// Translates the options' governance fields. Called at the start of the
// API call, so deadline_ms is relative to now (the documented contract).
dpz::ResourceLimits to_limits(const dpz_options* opt) {
  dpz::ResourceLimits limits;
  if (opt == nullptr) return limits;
  limits.max_memory_bytes = opt->max_memory_bytes;
  if (opt->deadline_ms > 0.0)
    limits.deadline_ns =
        dpz::ResourceLimits::deadline_after_ms(opt->deadline_ms);
  if (opt->cancel != nullptr) limits.cancel = opt->cancel->source.token();
  return limits;
}

unsigned threads_of(const dpz_options* opt) {
  return opt != nullptr && opt->threads > 0
             ? static_cast<unsigned>(opt->threads)
             : 0;
}

dpz::DpzConfig to_config(const dpz_options* opt) {
  dpz::DpzConfig config = opt->scheme == DPZ_SCHEME_LOOSE
                              ? dpz::DpzConfig::loose()
                              : dpz::DpzConfig::strict();
  switch (opt->selection) {
    case DPZ_SELECT_KNEE_1D:
      config.selection = dpz::KSelectionMethod::kKneePoint;
      config.knee_fit = dpz::KneeFit::kFit1D;
      break;
    case DPZ_SELECT_KNEE_POLY:
      config.selection = dpz::KSelectionMethod::kKneePoint;
      config.knee_fit = dpz::KneeFit::kFitPolyn;
      break;
    default:
      config.selection = dpz::KSelectionMethod::kTveThreshold;
      break;
  }
  config.tve = opt->tve;
  config.use_sampling = opt->use_sampling != 0;
  config.error_bound = opt->error_bound;
  config.dct_keep_fraction = opt->dct_keep_fraction;
  config.zlib_level = opt->zlib_level;
  config.threads =
      opt->threads > 0 ? static_cast<unsigned>(opt->threads) : 0;
  config.limits = to_limits(opt);
  return config;
}

// Copies a byte vector into a malloc'd buffer the C caller owns.
int export_bytes(const std::vector<std::uint8_t>& bytes,
                 unsigned char** out, size_t* out_size) {
  auto* buffer = static_cast<unsigned char*>(std::malloc(
      bytes.empty() ? 1 : bytes.size()));
  if (buffer == nullptr)
    return set_error(DPZ_ERR_INTERNAL, "out of memory");
  std::memcpy(buffer, bytes.data(), bytes.size());
  *out = buffer;
  *out_size = bytes.size();
  return DPZ_OK;
}

template <typename T>
int export_values(const dpz::NdArray<T>& array, T** out,
                  size_t* out_count) {
  auto* buffer =
      static_cast<T*>(std::malloc(array.size() * sizeof(T)));
  if (buffer == nullptr)
    return set_error(DPZ_ERR_INTERNAL, "out of memory");
  std::memcpy(buffer, array.flat().data(), array.size() * sizeof(T));
  *out = buffer;
  *out_count = array.size();
  return DPZ_OK;
}

template <typename T, typename Decompress>
int decompress_impl(const unsigned char* archive, size_t archive_size,
                    T** out, size_t* out_count,
                    const Decompress& decompress) {
  if (archive == nullptr || out == nullptr || out_count == nullptr)
    return set_error(DPZ_ERR_INVALID_ARGUMENT, "null argument");
  try {
    const dpz::NdArray<T> array =
        decompress(std::span<const std::uint8_t>{archive, archive_size});
    g_last_error.clear();
    return export_values(array, out, out_count);
  } catch (...) {
    return translate_exception();
  }
}

template <typename T>
int compress_impl(const T* data, const size_t* dims, size_t rank,
                  const dpz_options* opt, unsigned char** archive,
                  size_t* archive_size) {
  if (data == nullptr || dims == nullptr || opt == nullptr ||
      archive == nullptr || archive_size == nullptr)
    return set_error(DPZ_ERR_INVALID_ARGUMENT, "null argument");
  if (rank == 0 || rank > 4)
    return set_error(DPZ_ERR_INVALID_ARGUMENT, "rank must be 1..4");
  try {
    const TraceScope trace(opt);
    std::vector<std::size_t> shape(dims, dims + rank);
    std::size_t total = 1;
    for (const std::size_t d : shape) total *= d;
    dpz::NdArray<T> array(shape, std::vector<T>(data, data + total));
    const std::vector<std::uint8_t> bytes =
        dpz::dpz_compress(array, to_config(opt));
    g_last_error.clear();
    return export_bytes(bytes, archive, archive_size);
  } catch (...) {
    return translate_exception();
  }
}

// Options translation for container-level calls. fill_value crosses the
// boundary unchanged now that ChunkedConfig stores it as double.
dpz::ChunkedConfig to_chunked_config(const dpz_options* opt) {
  dpz::ChunkedConfig config;
  if (opt == nullptr) return config;
  config.threads = threads_of(opt);
  config.decode_policy = opt->best_effort != 0
                             ? dpz::DecodePolicy::kBestEffort
                             : dpz::DecodePolicy::kStrict;
  config.fill_value = opt->fill_value;
  config.dpz.limits = to_limits(opt);
  return config;
}

template <typename T, typename Decompress>
int chunked_decompress_impl(const unsigned char* container,
                            size_t container_size, const dpz_options* opt,
                            T** out, size_t* out_count,
                            dpz_decode_report* report,
                            const Decompress& decompress) {
  if (container == nullptr || out == nullptr || out_count == nullptr)
    return set_error(DPZ_ERR_INVALID_ARGUMENT, "null argument");
  if (report != nullptr) {
    *report = dpz_decode_report{};
    report->first_lost_frame = static_cast<size_t>(-1);
  }
  try {
    const TraceScope trace(opt);
    const dpz::ChunkedConfig config = to_chunked_config(opt);
    dpz::DecodeReport cpp_report;
    const dpz::NdArray<T> array = decompress(
        std::span<const std::uint8_t>{container, container_size}, config,
        &cpp_report);
    if (report != nullptr) {
      report->frames_total = cpp_report.frames_total;
      report->frames_recovered = cpp_report.frames_recovered;
      report->frames_lost = cpp_report.lost.size();
      report->frames_repaired = cpp_report.frames_repaired;
      if (!cpp_report.lost.empty()) {
        report->first_lost_frame = cpp_report.lost.front().frame;
        const std::string& msg = cpp_report.lost.front().message;
        const size_t n =
            std::min(msg.size(), sizeof(report->first_error) - 1);
        msg.copy(report->first_error, n);
        report->first_error[n] = '\0';
      }
    }
    g_last_error.clear();
    const int rc = export_values(array, out, out_count);
    if (rc != DPZ_OK) return rc;
    return cpp_report.complete() ? DPZ_OK : DPZ_PARTIAL;
  } catch (...) {
    return translate_exception();
  }
}

}  // namespace

extern "C" {

// The defaults are the library's own (DpzConfig{}, ChunkedConfig{}), so
// the C API cannot drift from them.
void dpz_options_default(dpz_options* opt) {
  if (opt == nullptr) return;
  const dpz::ChunkedConfig defaults;
  const dpz::DpzConfig& config = defaults.dpz;
  opt->scheme = config.scheme == dpz::DpzScheme::kLoose ? DPZ_SCHEME_LOOSE
                                                        : DPZ_SCHEME_STRICT;
  opt->selection =
      config.selection == dpz::KSelectionMethod::kTveThreshold
          ? DPZ_SELECT_TVE
          : (config.knee_fit == dpz::KneeFit::kFit1D ? DPZ_SELECT_KNEE_1D
                                                     : DPZ_SELECT_KNEE_POLY);
  opt->tve = config.tve;
  opt->use_sampling = config.use_sampling ? 1 : 0;
  opt->error_bound = config.error_bound;
  opt->dct_keep_fraction = config.dct_keep_fraction;
  opt->zlib_level = config.zlib_level;
  opt->threads = static_cast<int>(defaults.threads);
  opt->best_effort =
      defaults.decode_policy == dpz::DecodePolicy::kBestEffort ? 1 : 0;
  opt->fill_value = defaults.fill_value;
  opt->trace_path = nullptr;
  opt->max_memory_bytes = config.limits.max_memory_bytes;
  opt->deadline_ms = 0.0;  // ResourceLimits{} has no deadline
  opt->cancel = nullptr;
  opt->parity_k = static_cast<int>(defaults.parity_k);
  opt->parity_m = static_cast<int>(defaults.parity_m);
}

dpz_cancel_token* dpz_cancel_token_new(void) {
  return new (std::nothrow) dpz_cancel_token();
}

void dpz_cancel_token_free(dpz_cancel_token* token) { delete token; }

void dpz_cancel(dpz_cancel_token* token) {
  if (token != nullptr) token->source.request_cancel();
}

int dpz_cancel_requested(const dpz_cancel_token* token) {
  return token != nullptr && token->source.token().cancel_requested() ? 1
                                                                      : 0;
}

void dpz_telemetry_enable(int enabled) {
  dpz::obs::set_telemetry_enabled(enabled != 0);
}

int dpz_telemetry_enabled(void) {
  return dpz::obs::telemetry_enabled() ? 1 : 0;
}

int dpz_metrics_snapshot(dpz_metrics* out) {
  if (out == nullptr)
    return set_error(DPZ_ERR_INVALID_ARGUMENT, "null argument");
  const dpz::obs::MetricsSnapshot snap =
      dpz::obs::MetricsRegistry::instance().snapshot();
  using dpz::obs::Counter;
  *out = dpz_metrics{};
  out->compress_calls = snap.counter(Counter::kCompressCalls);
  out->decompress_calls = snap.counter(Counter::kDecompressCalls);
  out->bytes_in = snap.counter(Counter::kBytesIn);
  out->bytes_archive = snap.counter(Counter::kBytesArchive);
  out->bytes_decoded = snap.counter(Counter::kBytesDecoded);
  out->bytes_stage12 = snap.counter(Counter::kBytesStage12);
  out->bytes_stage3 = snap.counter(Counter::kBytesStage3);
  out->bytes_zlib_payload = snap.counter(Counter::kBytesZlibPayload);
  out->bytes_side = snap.counter(Counter::kBytesSide);
  out->quantizer_values = snap.counter(Counter::kQuantValues);
  out->quantizer_saturated = snap.counter(Counter::kQuantSaturated);
  out->outlier_count = snap.counter(Counter::kOutliers);
  out->stored_raw_fallbacks = snap.counter(Counter::kStoredRawFallbacks);
  out->crc_checks = snap.counter(Counter::kCrcChecks);
  out->crc_failures = snap.counter(Counter::kCrcFailures);
  out->io_read_eintr = snap.counter(Counter::kIoReadEintr);
  out->io_write_eintr = snap.counter(Counter::kIoWriteEintr);
  out->io_short_reads = snap.counter(Counter::kIoShortReads);
  out->io_short_writes = snap.counter(Counter::kIoShortWrites);
  out->frames_encoded = snap.counter(Counter::kFramesEncoded);
  out->frames_decoded = snap.counter(Counter::kFramesDecoded);
  out->frames_recovered = snap.counter(Counter::kFramesRecovered);
  out->frames_lost = snap.counter(Counter::kFramesLost);
  out->admission_rejected = snap.counter(Counter::kAdmissionRejected);
  out->cancelled = snap.counter(Counter::kCancelledOps);
  out->deadline_exceeded = snap.counter(Counter::kDeadlineExceededOps);
  out->frames_repaired = snap.counter(Counter::kFramesRepaired);
  out->repair_failed = snap.counter(Counter::kRepairFailed);
  return DPZ_OK;
}

// Copies a rendered string into a malloc'd NUL-terminated buffer.
static int export_string(const std::string& text, char** out) {
  if (out == nullptr)
    return set_error(DPZ_ERR_INVALID_ARGUMENT, "null argument");
  auto* buffer = static_cast<char*>(std::malloc(text.size() + 1));
  if (buffer == nullptr)
    return set_error(DPZ_ERR_RESOURCE, "out of memory");
  std::memcpy(buffer, text.c_str(), text.size() + 1);
  *out = buffer;
  g_last_error.clear();
  return DPZ_OK;
}

int dpz_metrics_json(char** text) {
  return export_string(
      dpz::obs::MetricsRegistry::instance().snapshot().to_json(), text);
}

int dpz_metrics_prometheus(char** text) {
  return export_string(
      dpz::obs::MetricsRegistry::instance().snapshot().to_prometheus(),
      text);
}

void dpz_metrics_reset(void) {
  dpz::obs::MetricsRegistry::instance().reset();
}

int dpz_trace_write(const char* path) {
  if (path == nullptr)
    return set_error(DPZ_ERR_INVALID_ARGUMENT, "null argument");
  if (!dpz::obs::TraceRecorder::instance().write_file(path))
    return set_error(DPZ_ERR_IO,
                     "cannot write trace file");
  g_last_error.clear();
  return DPZ_OK;
}

void dpz_trace_clear(void) { dpz::obs::TraceRecorder::instance().clear(); }

int dpz_chunked_decompress_float(const unsigned char* container,
                                 size_t container_size,
                                 const dpz_options* opt, float** out,
                                 size_t* out_count,
                                 dpz_decode_report* report) {
  return chunked_decompress_impl<float>(
      container, container_size, opt, out, out_count, report,
      [](std::span<const std::uint8_t> bytes,
         const dpz::ChunkedConfig& config, dpz::DecodeReport* rep) {
        return dpz::chunked_decompress(bytes, config, rep);
      });
}

int dpz_chunked_decompress_double(const unsigned char* container,
                                  size_t container_size,
                                  const dpz_options* opt, double** out,
                                  size_t* out_count,
                                  dpz_decode_report* report) {
  return chunked_decompress_impl<double>(
      container, container_size, opt, out, out_count, report,
      [](std::span<const std::uint8_t> bytes,
         const dpz::ChunkedConfig& config, dpz::DecodeReport* rep) {
        return dpz::chunked_decompress_f64(bytes, config, rep);
      });
}

int dpz_chunked_compress_float(const float* data, const size_t* dims,
                               size_t rank, size_t chunk_values,
                               const dpz_options* opt,
                               unsigned char** archive,
                               size_t* archive_size) {
  if (data == nullptr || dims == nullptr || opt == nullptr ||
      archive == nullptr || archive_size == nullptr)
    return set_error(DPZ_ERR_INVALID_ARGUMENT, "null argument");
  if (rank == 0 || rank > 4)
    return set_error(DPZ_ERR_INVALID_ARGUMENT, "rank must be 1..4");
  try {
    const TraceScope trace(opt);
    std::vector<std::size_t> shape(dims, dims + rank);
    std::size_t total = 1;
    for (const std::size_t d : shape) total *= d;
    const dpz::FloatArray array(shape,
                                std::vector<float>(data, data + total));
    dpz::ChunkedConfig config;
    config.dpz = to_config(opt);
    config.chunk_values = chunk_values;
    config.threads = threads_of(opt);
    if (opt->parity_m > 0) {
      config.parity_k =
          opt->parity_k > 0 ? static_cast<unsigned>(opt->parity_k) : 0;
      config.parity_m = static_cast<unsigned>(opt->parity_m);
    }
    const std::vector<std::uint8_t> bytes =
        dpz::chunked_compress(array, config);
    g_last_error.clear();
    return export_bytes(bytes, archive, archive_size);
  } catch (...) {
    return translate_exception();
  }
}

int dpz_compress_float(const float* data, const size_t* dims, size_t rank,
                       const dpz_options* opt, unsigned char** archive,
                       size_t* archive_size) {
  return compress_impl(data, dims, rank, opt, archive, archive_size);
}

int dpz_compress_double(const double* data, const size_t* dims, size_t rank,
                        const dpz_options* opt, unsigned char** archive,
                        size_t* archive_size) {
  return compress_impl(data, dims, rank, opt, archive, archive_size);
}

int dpz_decompress_float(const unsigned char* archive, size_t archive_size,
                         float** out, size_t* out_count) {
  return decompress_impl<float>(
      archive, archive_size, out, out_count,
      [](std::span<const std::uint8_t> a) { return dpz::dpz_decompress(a); });
}

int dpz_decompress_double(const unsigned char* archive, size_t archive_size,
                          double** out, size_t* out_count) {
  return decompress_impl<double>(
      archive, archive_size, out, out_count,
      [](std::span<const std::uint8_t> a) {
        return dpz::dpz_decompress_f64(a);
      });
}

int dpz_decompress_float_mt(const unsigned char* archive,
                            size_t archive_size, int threads, float** out,
                            size_t* out_count) {
  const unsigned n = threads > 0 ? static_cast<unsigned>(threads) : 0;
  return decompress_impl<float>(
      archive, archive_size, out, out_count,
      [n](std::span<const std::uint8_t> a) {
        return dpz::dpz_decompress(a, 0, n);
      });
}

int dpz_decompress_double_mt(const unsigned char* archive,
                             size_t archive_size, int threads, double** out,
                             size_t* out_count) {
  const unsigned n = threads > 0 ? static_cast<unsigned>(threads) : 0;
  return decompress_impl<double>(
      archive, archive_size, out, out_count,
      [n](std::span<const std::uint8_t> a) {
        return dpz::dpz_decompress_f64(a, 0, n);
      });
}

int dpz_decompress_float_ex(const unsigned char* archive,
                            size_t archive_size, const dpz_options* opt,
                            float** out, size_t* out_count) {
  return decompress_impl<float>(
      archive, archive_size, out, out_count,
      [opt](std::span<const std::uint8_t> a) {
        const TraceScope trace(opt);
        return dpz::dpz_decompress(a, 0, threads_of(opt), to_limits(opt));
      });
}

int dpz_decompress_double_ex(const unsigned char* archive,
                             size_t archive_size, const dpz_options* opt,
                             double** out, size_t* out_count) {
  return decompress_impl<double>(
      archive, archive_size, out, out_count,
      [opt](std::span<const std::uint8_t> a) {
        const TraceScope trace(opt);
        return dpz::dpz_decompress_f64(a, 0, threads_of(opt),
                                       to_limits(opt));
      });
}

int dpz_archive_shape(const unsigned char* archive, size_t archive_size,
                      size_t* dims, size_t* rank) {
  if (archive == nullptr || dims == nullptr || rank == nullptr)
    return set_error(DPZ_ERR_INVALID_ARGUMENT, "null argument");
  try {
    const dpz::DpzArchiveInfo info =
        dpz::dpz_inspect({archive, archive_size});
    *rank = info.shape.size();
    for (std::size_t d = 0; d < info.shape.size(); ++d)
      dims[d] = info.shape[d];
    g_last_error.clear();
    return DPZ_OK;
  } catch (...) {
    return translate_exception();
  }
}

int dpz_archive_is_double(const unsigned char* archive,
                          size_t archive_size) {
  if (archive == nullptr)
    return -set_error(DPZ_ERR_INVALID_ARGUMENT, "null argument");
  try {
    const dpz::DpzArchiveInfo info =
        dpz::dpz_inspect({archive, archive_size});
    g_last_error.clear();
    return info.double_precision ? 1 : 0;
  } catch (...) {
    return -translate_exception();
  }
}

void dpz_free(void* ptr) { std::free(ptr); }

const char* dpz_last_error(void) { return g_last_error.c_str(); }

const char* dpz_last_error_report(void) {
  thread_local std::string report;
  report = dpz::obs::FlightRecorder::instance().last_error_report();
  return report.c_str();
}

const char* dpz_status_name(int code) {
  if (code < 0) code = -code;  // dpz_archive_is_double negates on error
  return dpz::status_code_name(static_cast<dpz::StatusCode>(code));
}

}  // extern "C"
