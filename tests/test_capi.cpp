// Tests for the C API shim: option defaults, f32/f64 round-trips through
// the C surface, shape/precision introspection, error-code translation,
// and the no-exceptions-across-the-boundary contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "capi/dpz_c.h"
#include "core/chunked.h"

namespace {

std::vector<float> smooth_values(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.01));
  return v;
}

TEST(CApi, OptionsDefaultMatchesStrictScheme) {
  dpz_options opt;
  dpz_options_default(&opt);
  EXPECT_EQ(opt.scheme, DPZ_SCHEME_STRICT);
  EXPECT_EQ(opt.selection, DPZ_SELECT_TVE);
  EXPECT_DOUBLE_EQ(opt.tve, 0.99999);
  EXPECT_EQ(opt.use_sampling, 0);
  EXPECT_DOUBLE_EQ(opt.dct_keep_fraction, 1.0);
  EXPECT_EQ(opt.zlib_level, 6);
  EXPECT_EQ(opt.best_effort, 0);
  EXPECT_DOUBLE_EQ(opt.fill_value, 0.0);
  EXPECT_EQ(opt.parity_k, 16);
  EXPECT_EQ(opt.parity_m, 0);  // parity is opt-in
  dpz_options_default(nullptr);  // must not crash
}

TEST(CApi, StatusNamesCoverIntegrityCodes) {
  EXPECT_EQ(std::string(dpz_status_name(DPZ_ERR_CHECKSUM)), "checksum");
  EXPECT_EQ(std::string(dpz_status_name(DPZ_PARTIAL)), "partial");
  EXPECT_EQ(std::string(dpz_status_name(DPZ_OK)), "ok");
}

// A chunked container for the C-surface tests; built through the C++
// encoder so these rows stay independent of dpz_chunked_compress_float
// (which has its own coverage below).
std::vector<unsigned char> chunked_fixture(std::vector<float>* values) {
  *values = smooth_values(3 * 4096);
  const dpz::FloatArray data({values->size()},
                             std::vector<float>(*values));
  dpz::ChunkedConfig config;
  config.chunk_values = 4096;
  return dpz::chunked_compress(data, config);
}

TEST(CApi, ChunkedStrictDecodeRoundTrips) {
  std::vector<float> values;
  const std::vector<unsigned char> container = chunked_fixture(&values);

  float* out = nullptr;
  size_t out_count = 0;
  dpz_decode_report report;
  ASSERT_EQ(dpz_chunked_decompress_float(container.data(),
                                         container.size(), nullptr, &out,
                                         &out_count, &report),
            DPZ_OK)
      << dpz_last_error();
  ASSERT_EQ(out_count, values.size());
  EXPECT_EQ(report.frames_total, 3U);
  EXPECT_EQ(report.frames_recovered, 3U);
  EXPECT_EQ(report.frames_lost, 0U);
  EXPECT_EQ(report.first_lost_frame, static_cast<size_t>(-1));
  EXPECT_EQ(report.first_error[0], '\0');
  dpz_free(out);
}

TEST(CApi, ChunkedDamageStrictFailsBestEffortGoesPartial) {
  std::vector<float> values;
  std::vector<unsigned char> container = chunked_fixture(&values);

  // Reference reconstruction from the intact container.
  float* ref = nullptr;
  size_t ref_count = 0;
  ASSERT_EQ(dpz_chunked_decompress_float(container.data(),
                                         container.size(), nullptr, &ref,
                                         &ref_count, nullptr),
            DPZ_OK);

  container[container.size() - 32] ^= 0x20;  // damage the last frame

  // Strict: the checksum refinement of the format error.
  float* out = nullptr;
  size_t out_count = 0;
  EXPECT_EQ(dpz_chunked_decompress_float(container.data(),
                                         container.size(), nullptr, &out,
                                         &out_count, nullptr),
            DPZ_ERR_CHECKSUM);
  EXPECT_EQ(out, nullptr) << "output must be untouched on error";
  EXPECT_NE(std::string(dpz_last_error()).find("checksum"),
            std::string::npos);

  // Best effort: partial result, lost frame filled and reported.
  dpz_options opt;
  dpz_options_default(&opt);
  opt.best_effort = 1;
  opt.fill_value = -3.0;
  dpz_decode_report report;
  ASSERT_EQ(dpz_chunked_decompress_float(container.data(),
                                         container.size(), &opt, &out,
                                         &out_count, &report),
            DPZ_PARTIAL);
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out_count, ref_count);
  EXPECT_EQ(report.frames_total, 3U);
  EXPECT_EQ(report.frames_recovered, 2U);
  EXPECT_EQ(report.frames_lost, 1U);
  EXPECT_EQ(report.first_lost_frame, 2U);
  EXPECT_NE(std::string(report.first_error).find("checksum"),
            std::string::npos);
  for (size_t i = 0; i < out_count; ++i) {
    if (i < 2 * 4096) {
      ASSERT_EQ(out[i], ref[i]) << "intact frame altered at " << i;
    } else {
      ASSERT_EQ(out[i], -3.0F) << "lost frame not filled at " << i;
    }
  }
  dpz_free(ref);
  dpz_free(out);
}

TEST(CApi, ChunkedDoubleDecompressMatchesFloatVariant) {
  std::vector<float> values;
  const std::vector<unsigned char> container = chunked_fixture(&values);

  float* f_out = nullptr;
  size_t f_count = 0;
  ASSERT_EQ(dpz_chunked_decompress_float(container.data(),
                                         container.size(), nullptr, &f_out,
                                         &f_count, nullptr),
            DPZ_OK);
  double* d_out = nullptr;
  size_t d_count = 0;
  dpz_decode_report report;
  ASSERT_EQ(dpz_chunked_decompress_double(container.data(),
                                          container.size(), nullptr,
                                          &d_out, &d_count, &report),
            DPZ_OK)
      << dpz_last_error();
  ASSERT_EQ(d_count, f_count);
  EXPECT_EQ(report.frames_total, 3U);
  EXPECT_EQ(report.frames_recovered, 3U);
  EXPECT_EQ(report.frames_repaired, 0U);
  for (size_t i = 0; i < d_count; ++i)
    ASSERT_EQ(d_out[i], static_cast<double>(f_out[i])) << "value " << i;
  dpz_free(f_out);
  dpz_free(d_out);
}

TEST(CApi, ChunkedDoubleBestEffortFillsWithDoubleFill) {
  std::vector<float> values;
  std::vector<unsigned char> container = chunked_fixture(&values);
  container[container.size() - 32] ^= 0x20;  // damage the last frame

  double* out = nullptr;
  size_t out_count = 0;
  EXPECT_EQ(dpz_chunked_decompress_double(container.data(),
                                          container.size(), nullptr, &out,
                                          &out_count, nullptr),
            DPZ_ERR_CHECKSUM);
  EXPECT_EQ(out, nullptr);

  dpz_options opt;
  dpz_options_default(&opt);
  opt.best_effort = 1;
  opt.fill_value = 0.1;  // exactly representable only as double
  dpz_decode_report report;
  ASSERT_EQ(dpz_chunked_decompress_double(container.data(),
                                          container.size(), &opt, &out,
                                          &out_count, &report),
            DPZ_PARTIAL);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(report.frames_lost, 1U);
  EXPECT_EQ(report.first_lost_frame, 2U);
  // The double pipeline must not round the fill through float.
  for (size_t i = 2 * 4096; i < out_count; ++i)
    ASSERT_EQ(out[i], 0.1) << "fill at " << i;
  dpz_free(out);
}

TEST(CApi, ChunkedCompressWithParityRepairsAcrossTheBoundary) {
  const std::vector<float> data = smooth_values(6 * 4096);
  const size_t dims[1] = {6 * 4096};
  dpz_options opt;
  dpz_options_default(&opt);
  opt.parity_k = 3;
  opt.parity_m = 1;

  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  ASSERT_EQ(dpz_chunked_compress_float(data.data(), dims, 1, 4096, &opt,
                                       &archive, &archive_size),
            DPZ_OK)
      << dpz_last_error();
  ASSERT_NE(archive, nullptr);

  // Reference reconstruction from the intact container.
  float* ref = nullptr;
  size_t ref_count = 0;
  ASSERT_EQ(dpz_chunked_decompress_float(archive, archive_size, nullptr,
                                         &ref, &ref_count, nullptr),
            DPZ_OK);
  ASSERT_EQ(ref_count, data.size());

  // Damage one frame's payload; parity must absorb it: strict decode
  // still returns DPZ_OK with the repair reported, bytes unchanged.
  archive[archive_size / 2] ^= 0x40;
  float* out = nullptr;
  size_t out_count = 0;
  dpz_decode_report report;
  ASSERT_EQ(dpz_chunked_decompress_float(archive, archive_size, nullptr,
                                         &out, &out_count, &report),
            DPZ_OK)
      << dpz_last_error();
  EXPECT_EQ(report.frames_total, 6U);
  EXPECT_EQ(report.frames_repaired, 1U);
  EXPECT_EQ(report.frames_lost, 0U);
  EXPECT_EQ(report.frames_recovered, 6U);
  ASSERT_EQ(out_count, ref_count);
  for (size_t i = 0; i < out_count; ++i)
    ASSERT_EQ(out[i], ref[i]) << "repair not byte-exact at " << i;

  dpz_free(archive);
  dpz_free(ref);
  dpz_free(out);
}

TEST(CApi, ChunkedCompressRejectsBadParityGeometry) {
  const std::vector<float> data = smooth_values(4096);
  const size_t dims[1] = {4096};
  dpz_options opt;
  dpz_options_default(&opt);
  opt.parity_k = 254;
  opt.parity_m = 2;  // k + m > 255
  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  EXPECT_EQ(dpz_chunked_compress_float(data.data(), dims, 1, 4096, &opt,
                                       &archive, &archive_size),
            DPZ_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(archive, nullptr);
  EXPECT_EQ(dpz_chunked_compress_float(nullptr, dims, 1, 4096, &opt,
                                       &archive, &archive_size),
            DPZ_ERR_INVALID_ARGUMENT);
}

// The writer holds its chunk size to the parser's 2^40-value cap, so it
// never emits a container that decode rejects.
TEST(CApi, ChunkedCompressRejectsChunkAboveTheCap) {
  const std::vector<float> data = smooth_values(4096);
  const size_t dims[1] = {4096};
  dpz_options opt;
  dpz_options_default(&opt);
  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  EXPECT_EQ(dpz_chunked_compress_float(data.data(), dims, 1,
                                       (size_t{1} << 40) + 1, &opt,
                                       &archive, &archive_size),
            DPZ_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(archive, nullptr);
}

// dpz_options_default reads the library's defaults, so a default-option
// C call writes the bytes of a default-config C++ call, on both routes.
TEST(CApi, DefaultOptionsAreTheLibraryDefaults) {
  const std::vector<float> values = smooth_values(64 * 96);
  const size_t dims[2] = {64, 96};
  const dpz::FloatArray data({64, 96}, std::vector<float>(values));
  dpz_options opt;
  dpz_options_default(&opt);

  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  ASSERT_EQ(dpz_compress_float(values.data(), dims, 2, &opt, &archive,
                               &archive_size),
            DPZ_OK)
      << dpz_last_error();
  EXPECT_EQ(std::vector<std::uint8_t>(archive, archive + archive_size),
            dpz::dpz_compress(data, dpz::DpzConfig{}));
  dpz_free(archive);

  dpz::ChunkedConfig config;
  config.chunk_values = 2048;
  ASSERT_EQ(dpz_chunked_compress_float(values.data(), dims, 2,
                                       config.chunk_values, &opt, &archive,
                                       &archive_size),
            DPZ_OK)
      << dpz_last_error();
  EXPECT_EQ(std::vector<std::uint8_t>(archive, archive + archive_size),
            dpz::chunked_compress(data, config));
  dpz_free(archive);
}

TEST(CApi, MetricsExposeRepairCounters) {
  dpz_telemetry_enable(1);
  dpz_metrics_reset();

  const std::vector<float> data = smooth_values(4 * 4096);
  const size_t dims[1] = {4 * 4096};
  dpz_options opt;
  dpz_options_default(&opt);
  opt.parity_k = 4;
  opt.parity_m = 1;
  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  ASSERT_EQ(dpz_chunked_compress_float(data.data(), dims, 1, 4096, &opt,
                                       &archive, &archive_size),
            DPZ_OK);
  archive[archive_size / 2] ^= 0x08;

  float* out = nullptr;
  size_t out_count = 0;
  ASSERT_EQ(dpz_chunked_decompress_float(archive, archive_size, nullptr,
                                         &out, &out_count, nullptr),
            DPZ_OK)
      << dpz_last_error();

  dpz_metrics metrics;
  ASSERT_EQ(dpz_metrics_snapshot(&metrics), DPZ_OK);
  EXPECT_EQ(metrics.frames_repaired, 1U);
  EXPECT_EQ(metrics.repair_failed, 0U);

  dpz_free(archive);
  dpz_free(out);
  dpz_telemetry_enable(0);
}

TEST(CApi, FloatRoundTrip) {
  const std::vector<float> data = smooth_values(64 * 96);
  const size_t dims[2] = {64, 96};
  dpz_options opt;
  dpz_options_default(&opt);

  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  ASSERT_EQ(dpz_compress_float(data.data(), dims, 2, &opt, &archive,
                               &archive_size),
            DPZ_OK)
      << dpz_last_error();
  ASSERT_NE(archive, nullptr);
  EXPECT_LT(archive_size, data.size() * sizeof(float));

  size_t shape[4] = {0, 0, 0, 0};
  size_t rank = 0;
  ASSERT_EQ(dpz_archive_shape(archive, archive_size, shape, &rank), DPZ_OK);
  EXPECT_EQ(rank, 2U);
  EXPECT_EQ(shape[0], 64U);
  EXPECT_EQ(shape[1], 96U);
  EXPECT_EQ(dpz_archive_is_double(archive, archive_size), 0);

  float* out = nullptr;
  size_t out_count = 0;
  ASSERT_EQ(dpz_decompress_float(archive, archive_size, &out, &out_count),
            DPZ_OK)
      << dpz_last_error();
  ASSERT_EQ(out_count, data.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < out_count; ++i)
    max_err = std::max(max_err,
                       std::abs(static_cast<double>(data[i]) - out[i]));
  EXPECT_LT(max_err, 0.05);

  dpz_free(archive);
  dpz_free(out);
}

TEST(CApi, DoubleRoundTrip) {
  std::vector<double> data(48 * 64);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = std::cos(static_cast<double>(i) * 0.02);
  const size_t dims[2] = {48, 64};
  dpz_options opt;
  dpz_options_default(&opt);

  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  ASSERT_EQ(dpz_compress_double(data.data(), dims, 2, &opt, &archive,
                                &archive_size),
            DPZ_OK)
      << dpz_last_error();
  EXPECT_EQ(dpz_archive_is_double(archive, archive_size), 1);

  double* out = nullptr;
  size_t out_count = 0;
  ASSERT_EQ(dpz_decompress_double(archive, archive_size, &out, &out_count),
            DPZ_OK)
      << dpz_last_error();
  ASSERT_EQ(out_count, data.size());
  dpz_free(archive);
  dpz_free(out);
}

TEST(CApi, PrecisionMismatchGivesFormatError) {
  const std::vector<float> data = smooth_values(4096);
  const size_t dims[1] = {4096};
  dpz_options opt;
  dpz_options_default(&opt);
  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  ASSERT_EQ(dpz_compress_float(data.data(), dims, 1, &opt, &archive,
                               &archive_size),
            DPZ_OK);

  double* out = nullptr;
  size_t out_count = 0;
  EXPECT_EQ(dpz_decompress_double(archive, archive_size, &out, &out_count),
            DPZ_ERR_FORMAT);
  EXPECT_NE(std::string(dpz_last_error()).find("dpz_decompress"),
            std::string::npos);
  EXPECT_EQ(out, nullptr);  // outputs untouched on error
  dpz_free(archive);
}

TEST(CApi, NullArgumentsRejected) {
  dpz_options opt;
  dpz_options_default(&opt);
  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  const size_t dims[1] = {16};
  EXPECT_EQ(dpz_compress_float(nullptr, dims, 1, &opt, &archive,
                               &archive_size),
            DPZ_ERR_INVALID_ARGUMENT);
  float dummy = 0.0F;
  EXPECT_EQ(dpz_compress_float(&dummy, dims, 0, &opt, &archive,
                               &archive_size),
            DPZ_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(dpz_decompress_float(nullptr, 0, nullptr, nullptr),
            DPZ_ERR_INVALID_ARGUMENT);
}

TEST(CApi, GarbageArchiveGivesFormatErrorNotCrash) {
  std::vector<unsigned char> garbage(64, 0xAA);
  float* out = nullptr;
  size_t out_count = 0;
  EXPECT_EQ(dpz_decompress_float(garbage.data(), garbage.size(), &out,
                                 &out_count),
            DPZ_ERR_FORMAT);
  EXPECT_NE(dpz_last_error()[0], '\0');
  size_t shape[4];
  size_t rank = 0;
  EXPECT_EQ(dpz_archive_shape(garbage.data(), garbage.size(), shape, &rank),
            DPZ_ERR_FORMAT);
  EXPECT_LT(dpz_archive_is_double(garbage.data(), garbage.size()), 0);
}

TEST(CApi, CancelTokenLifecycleAndSemantics) {
  dpz_cancel_token* token = dpz_cancel_token_new();
  ASSERT_NE(token, nullptr);
  EXPECT_EQ(dpz_cancel_requested(token), 0);
  dpz_cancel(token);
  EXPECT_EQ(dpz_cancel_requested(token), 1);
  dpz_cancel(token);  // idempotent
  EXPECT_EQ(dpz_cancel_requested(token), 1);
  dpz_cancel_token_free(token);
  // Null handles are inert everywhere.
  dpz_cancel(nullptr);
  EXPECT_EQ(dpz_cancel_requested(nullptr), 0);
  dpz_cancel_token_free(nullptr);
}

TEST(CApi, ResourceLimitOptionsGovernCompressAndDecompress) {
  const std::vector<float> data = smooth_values(64 * 96);
  const size_t dims[2] = {64, 96};
  dpz_options opt;
  dpz_options_default(&opt);
  EXPECT_EQ(opt.max_memory_bytes, 0U);
  EXPECT_DOUBLE_EQ(opt.deadline_ms, 0.0);
  EXPECT_EQ(opt.cancel, nullptr);

  // Generous limits: everything succeeds and bytes match the ungoverned
  // archive (limits are byte-invisible when they never trip).
  unsigned char* plain = nullptr;
  size_t plain_size = 0;
  ASSERT_EQ(dpz_compress_float(data.data(), dims, 2, &opt, &plain,
                               &plain_size),
            DPZ_OK);
  opt.max_memory_bytes = 1ULL << 30;
  opt.deadline_ms = 60000.0;
  unsigned char* governed = nullptr;
  size_t governed_size = 0;
  ASSERT_EQ(dpz_compress_float(data.data(), dims, 2, &opt, &governed,
                               &governed_size),
            DPZ_OK)
      << dpz_last_error();
  ASSERT_EQ(governed_size, plain_size);
  EXPECT_EQ(std::memcmp(governed, plain, plain_size), 0);

  float* out = nullptr;
  size_t out_count = 0;
  ASSERT_EQ(dpz_decompress_float_ex(governed, governed_size, &opt, &out,
                                    &out_count),
            DPZ_OK)
      << dpz_last_error();
  EXPECT_EQ(out_count, data.size());
  dpz_free(out);
  out = nullptr;

  // A budget smaller than the decoded output: pre-flight admission
  // rejects with the dedicated status, outputs untouched.
  dpz_options tiny;
  dpz_options_default(&tiny);
  tiny.max_memory_bytes = 1024;
  EXPECT_EQ(dpz_decompress_float_ex(governed, governed_size, &tiny, &out,
                                    &out_count),
            DPZ_ERR_RESOURCE);
  EXPECT_EQ(out, nullptr);
  EXPECT_EQ(std::string(dpz_status_name(DPZ_ERR_RESOURCE)),
            "resource_exhausted");

  // An expired deadline aborts at the first checkpoint.
  dpz_options late;
  dpz_options_default(&late);
  late.deadline_ms = 1e-6;
  EXPECT_EQ(dpz_decompress_float_ex(governed, governed_size, &late, &out,
                                    &out_count),
            DPZ_ERR_DEADLINE);
  EXPECT_EQ(std::string(dpz_status_name(DPZ_ERR_DEADLINE)),
            "deadline_exceeded");

  // A pre-cancelled token aborts compress and decompress alike.
  dpz_cancel_token* token = dpz_cancel_token_new();
  ASSERT_NE(token, nullptr);
  dpz_cancel(token);
  dpz_options cancelled;
  dpz_options_default(&cancelled);
  cancelled.cancel = token;
  unsigned char* never = nullptr;
  size_t never_size = 0;
  EXPECT_EQ(dpz_compress_float(data.data(), dims, 2, &cancelled, &never,
                               &never_size),
            DPZ_ERR_CANCELLED);
  EXPECT_EQ(never, nullptr);
  EXPECT_EQ(dpz_decompress_float_ex(governed, governed_size, &cancelled,
                                    &out, &out_count),
            DPZ_ERR_CANCELLED);
  EXPECT_EQ(std::string(dpz_status_name(DPZ_ERR_CANCELLED)), "cancelled");
  dpz_cancel_token_free(token);

  dpz_free(plain);
  dpz_free(governed);
}

TEST(CApi, MetricsExposeGovernanceCounters) {
  dpz_telemetry_enable(1);
  dpz_metrics_reset();

  const std::vector<float> data = smooth_values(64 * 96);
  const size_t dims[2] = {64, 96};
  dpz_options defaults;
  dpz_options_default(&defaults);
  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  ASSERT_EQ(dpz_compress_float(data.data(), dims, 2, &defaults, &archive,
                               &archive_size),
            DPZ_OK);

  dpz_options tiny;
  dpz_options_default(&tiny);
  tiny.max_memory_bytes = 1024;
  float* out = nullptr;
  size_t out_count = 0;
  EXPECT_EQ(dpz_decompress_float_ex(archive, archive_size, &tiny, &out,
                                    &out_count),
            DPZ_ERR_RESOURCE);

  dpz_options late;
  dpz_options_default(&late);
  late.deadline_ms = 1e-6;
  EXPECT_EQ(dpz_decompress_float_ex(archive, archive_size, &late, &out,
                                    &out_count),
            DPZ_ERR_DEADLINE);

  dpz_cancel_token* token = dpz_cancel_token_new();
  dpz_cancel(token);
  dpz_options cancelled;
  dpz_options_default(&cancelled);
  cancelled.cancel = token;
  EXPECT_EQ(dpz_decompress_float_ex(archive, archive_size, &cancelled,
                                    &out, &out_count),
            DPZ_ERR_CANCELLED);
  dpz_cancel_token_free(token);

  dpz_metrics metrics;
  ASSERT_EQ(dpz_metrics_snapshot(&metrics), DPZ_OK);
  EXPECT_EQ(metrics.admission_rejected, 1U);
  EXPECT_EQ(metrics.deadline_exceeded, 1U);
  EXPECT_EQ(metrics.cancelled, 1U);

  dpz_free(archive);
  dpz_telemetry_enable(0);
}

TEST(CApi, KneeSelectionViaOptions) {
  const std::vector<float> data = smooth_values(128 * 64);
  const size_t dims[2] = {128, 64};
  dpz_options opt;
  dpz_options_default(&opt);
  opt.scheme = DPZ_SCHEME_LOOSE;
  opt.selection = DPZ_SELECT_KNEE_1D;

  unsigned char* archive = nullptr;
  size_t archive_size = 0;
  ASSERT_EQ(dpz_compress_float(data.data(), dims, 2, &opt, &archive,
                               &archive_size),
            DPZ_OK)
      << dpz_last_error();
  float* out = nullptr;
  size_t out_count = 0;
  ASSERT_EQ(dpz_decompress_float(archive, archive_size, &out, &out_count),
            DPZ_OK);
  EXPECT_EQ(out_count, data.size());
  dpz_free(archive);
  dpz_free(out);
}

}  // namespace
