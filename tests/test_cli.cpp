// Tests for the `dpz` command-line tool: shape parsing and full
// compress / info / decompress / probe flows through run_cli on temp
// files.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <sstream>

#include "core/chunked.h"
#include "core/dpz.h"
#include "core/sampling.h"
#include "data/datasets.h"
#include "io/file_io.h"
#include "tools/cli_app.h"
#include "util/error.h"
#include "util/format.h"
#include "util/resource.h"

namespace dpz::tools {
namespace {

TEST(ParseShape, AcceptsValidShapes) {
  EXPECT_EQ(parse_shape("100"), (std::vector<std::size_t>{100}));
  EXPECT_EQ(parse_shape("1800x3600"),
            (std::vector<std::size_t>{1800, 3600}));
  EXPECT_EQ(parse_shape("128x128x128"),
            (std::vector<std::size_t>{128, 128, 128}));
  EXPECT_EQ(parse_shape("2x3x4x5"), (std::vector<std::size_t>{2, 3, 4, 5}));
}

TEST(ParseShape, RejectsMalformedShapes) {
  EXPECT_THROW(parse_shape(""), InvalidArgument);
  EXPECT_THROW(parse_shape("12x"), InvalidArgument);
  EXPECT_THROW(parse_shape("x12"), InvalidArgument);
  EXPECT_THROW(parse_shape("12xabc"), InvalidArgument);
  EXPECT_THROW(parse_shape("0x4"), InvalidArgument);
  EXPECT_THROW(parse_shape("2x3x4x5x6"), InvalidArgument);
  EXPECT_THROW(parse_shape("99999999999999999999999"), InvalidArgument);
  EXPECT_THROW(parse_shape("-5"), InvalidArgument);
}

class CliFlowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dpz_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    FloatArray field({64, 96});
    for (std::size_t i = 0; i < field.extent(0); ++i)
      for (std::size_t j = 0; j < field.extent(1); ++j)
        field(i, j) = static_cast<float>(
            std::sin(0.1 * static_cast<double>(i)) +
            std::cos(0.07 * static_cast<double>(j)));
    write_f32(path("in.f32"), field);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  int run(std::vector<std::string> args) {
    std::vector<const char*> argv{"dpz"};
    for (const auto& a : args) argv.push_back(a.c_str());
    out_.str("");
    err_.str("");
    return run_cli(static_cast<int>(argv.size()), argv.data(), out_, err_);
  }

  std::filesystem::path dir_;
  std::ostringstream out_, err_;
};

TEST_F(CliFlowTest, CompressInfoDecompressRoundTrip) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("a.dpz"),
                 "--shape=64x96", "--verify"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("verify: PSNR"), std::string::npos);

  ASSERT_EQ(run({"info", path("a.dpz")}), 0) << err_.str();
  EXPECT_NE(out_.str().find("DPZ pipeline"), std::string::npos);
  EXPECT_NE(out_.str().find("64 x 96"), std::string::npos);

  ASSERT_EQ(run({"decompress", path("a.dpz"), path("out.f32")}), 0)
      << err_.str();
  const FloatArray original = read_f32(path("in.f32"), {64, 96});
  const FloatArray restored = read_f32(path("out.f32"), {64, 96});
  double max_err = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i)
    max_err = std::max(max_err, std::abs(static_cast<double>(original[i]) -
                                         restored[i]));
  EXPECT_LT(max_err, 0.05);
}

TEST_F(CliFlowTest, LooseSchemeAndKneeFlags) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("b.dpz"),
                 "--shape=64x96", "--scheme=l", "--knee=polyn"}),
            0)
      << err_.str();
  ASSERT_EQ(run({"info", path("b.dpz")}), 0);
  EXPECT_NE(out_.str().find("1-byte codes"), std::string::npos);
}

TEST_F(CliFlowTest, PartialDecompression) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("c.dpz"),
                 "--shape=64x96", "--tve=0.9999999"}),
            0);
  ASSERT_EQ(run({"decompress", path("c.dpz"), path("partial.f32"),
                 "--components=1"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("first 1 components"), std::string::npos);
  EXPECT_NO_THROW(read_f32(path("partial.f32"), {64, 96}));
}

TEST_F(CliFlowTest, DecompressRejectsFlagsTheInputCannotHonour) {
  // --components selects a prefix of one archive's components; a chunked
  // container has no such prefix. --best-effort/--fill salvage lost
  // frames, which a single archive does not have. Each is named, never
  // silently ignored.
  ASSERT_EQ(run({"compress", path("in.f32"), path("r.dpz"),
                 "--shape=64x96"}),
            0)
      << err_.str();
  ASSERT_EQ(run({"compress", path("in.f32"), path("r.dpzc"),
                 "--shape=64x96", "--chunk=2048"}),
            0)
      << err_.str();

  EXPECT_EQ(run({"decompress", path("r.dpzc"), path("r_out.f32"),
                 "--components=1"}),
            1);
  EXPECT_NE(err_.str().find("--components"), std::string::npos)
      << err_.str();
  for (const std::string flag : {"best-effort", "fill"}) {
    EXPECT_EQ(run({"decompress", path("r.dpz"), path("r_out.f32"),
                   "--" + flag + (flag == "fill" ? "=0" : "")}),
              1)
        << flag;
    EXPECT_NE(err_.str().find("--" + flag), std::string::npos)
        << err_.str();
  }

  // Without the foreign flags both still decode.
  EXPECT_EQ(run({"decompress", path("r.dpzc"), path("r_out.f32")}), 0)
      << err_.str();
  EXPECT_EQ(run({"decompress", path("r.dpz"), path("r_out.f32"),
                 "--components=1"}),
            0)
      << err_.str();
}

TEST_F(CliFlowTest, ProbeReportsVifAndEstimate) {
  ASSERT_EQ(run({"probe", path("in.f32"), "--shape=64x96"}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("VIF median"), std::string::npos);
  EXPECT_NE(out_.str().find("CR estimate"), std::string::npos);
}

// probe reads the compress flags, so --scheme=l calibrates its CR band
// with the loose quantizer: the band is dpz_probe's for
// DpzConfig::loose(), not the strict one.
TEST_F(CliFlowTest, ProbeHonoursTheSchemeFlag) {
  const FloatArray data = read_f32(path("in.f32"), {64, 96});
  const auto band = [&](const DpzConfig& config) {
    const SamplingReport report = dpz_probe(data, config);
    return "CR estimate: " + fixed(report.cr_estimate_low, 1) + "X - " +
           fixed(report.cr_estimate_high, 1) + "X";
  };
  const std::string loose = band(DpzConfig::loose());
  const std::string strict = band(DpzConfig::strict());
  ASSERT_NE(loose, strict);

  ASSERT_EQ(run({"probe", path("in.f32"), "--shape=64x96", "--scheme=l"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find(loose), std::string::npos) << out_.str();
  ASSERT_EQ(run({"probe", path("in.f32"), "--shape=64x96"}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find(strict), std::string::npos) << out_.str();
}

// probe --dct-keep truncates like compress does, so the k it prints is
// the k compress --sampling --dct-keep selects (on Channel at keep 0.1,
// 87; a probe that skipped the truncation printed 104).
TEST_F(CliFlowTest, ProbePrintsTheKCompressUses) {
  const FloatArray data = make_dataset("Channel", 0.2, 2021).data;
  write_f32(path("channel.f32"), data);
  for (const std::string keep : {"1", "0.1"}) {
    DpzConfig config;
    config.use_sampling = true;
    config.dct_keep_fraction = std::stod(keep);
    DpzStats stats;
    (void)dpz_compress(data, config, &stats);
    ASSERT_EQ(run({"probe", path("channel.f32"), "--shape=26x26x26",
                   "--dct-keep=" + keep}),
              0)
        << err_.str();
    EXPECT_NE(out_.str().find("-> " + std::to_string(stats.k) + " total"),
              std::string::npos)
        << "keep " << keep << ": " << out_.str();
  }
}

TEST_F(CliFlowTest, MissingShapeFails) {
  EXPECT_EQ(run({"compress", path("in.f32"), path("x.dpz")}), 1);
  EXPECT_NE(err_.str().find("--shape"), std::string::npos);
}

TEST_F(CliFlowTest, UnknownCommandFails) {
  EXPECT_EQ(run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliFlowTest, HelpPrintsUsage) {
  EXPECT_EQ(run({"compress", "--help"}), 0);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
}

TEST_F(CliFlowTest, MissingInputFileFails) {
  EXPECT_EQ(run({"compress", path("absent.f32"), path("x.dpz"),
                 "--shape=64x96"}),
            1);
  EXPECT_NE(err_.str().find("error:"), std::string::npos);
}

TEST_F(CliFlowTest, DoublePrecisionRoundTrip) {
  DoubleArray field({48, 64});
  for (std::size_t i = 0; i < field.extent(0); ++i)
    for (std::size_t j = 0; j < field.extent(1); ++j)
      field(i, j) = std::sin(0.2 * static_cast<double>(i)) *
                    std::cos(0.15 * static_cast<double>(j));
  write_f64(path("in64.f64"), field);

  ASSERT_EQ(run({"compress", path("in64.f64"), path("d.dpz"),
                 "--shape=48x64", "--dtype=f64", "--verify"}),
            0)
      << err_.str();
  ASSERT_EQ(run({"info", path("d.dpz")}), 0);
  EXPECT_NE(out_.str().find("f64"), std::string::npos);

  ASSERT_EQ(run({"decompress", path("d.dpz"), path("out64.f64")}), 0)
      << err_.str();
  const DoubleArray restored = read_f64(path("out64.f64"), {48, 64});
  double max_err = 0.0;
  for (std::size_t i = 0; i < field.size(); ++i)
    max_err = std::max(max_err, std::abs(field[i] - restored[i]));
  EXPECT_LT(max_err, 0.05);
}

TEST_F(CliFlowTest, UnknownDtypeFails) {
  EXPECT_EQ(run({"compress", path("in.f32"), path("x.dpz"),
                 "--shape=64x96", "--dtype=f16"}),
            1);
  EXPECT_NE(err_.str().find("dtype"), std::string::npos);
}

TEST_F(CliFlowTest, DatasetsSubcommandWritesFilesAndManifest) {
  const std::string outdir = path("datasets");
  ASSERT_EQ(run({"datasets", outdir, "--scale=0.05",
                 "--names=FLDSC,HACC-vx"}),
            0)
      << err_.str();
  EXPECT_TRUE(std::filesystem::exists(outdir + "/FLDSC.f32"));
  EXPECT_TRUE(std::filesystem::exists(outdir + "/HACC-vx.f32"));
  EXPECT_TRUE(std::filesystem::exists(outdir + "/MANIFEST.txt"));
  // The manifest's shape must open the file.
  EXPECT_NO_THROW(read_f32(outdir + "/FLDSC.f32", {90, 180}));
}

TEST_F(CliFlowTest, DatasetsRejectsUnknownName) {
  EXPECT_EQ(run({"datasets", path("ds2"), "--names=NOPE"}), 1);
}

TEST_F(CliFlowTest, TargetRatioFlag) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("rc.dpz"),
                 "--shape=64x96", "--target-cr=10", "--verify"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("ratio 1"), std::string::npos);  // >= 10X
}

TEST_F(CliFlowTest, TargetPsnrFlag) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("rp.dpz"),
                 "--shape=64x96", "--target-psnr=40", "--verify"}),
            0)
      << err_.str();
}

TEST_F(CliFlowTest, ConflictingTargetsRejected) {
  EXPECT_EQ(run({"compress", path("in.f32"), path("x.dpz"),
                 "--shape=64x96", "--target-cr=10", "--target-psnr=40"}),
            1);
  EXPECT_NE(err_.str().find("choose one"), std::string::npos);
}

TEST_F(CliFlowTest, ChunkedContainerRoundTrip) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("ck.dpzc"),
                 "--shape=64x96", "--chunk=2048", "--verify"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("chunked container: 3 frames"),
            std::string::npos);
  ASSERT_EQ(run({"decompress", path("ck.dpzc"), path("ck_out.f32")}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("3 frames"), std::string::npos);
  EXPECT_NO_THROW(read_f32(path("ck_out.f32"), {64, 96}));
}

TEST_F(CliFlowTest, ChunkedAndTargetConflict) {
  EXPECT_EQ(run({"compress", path("in.f32"), path("x.dpz"),
                 "--shape=64x96", "--chunk=2048", "--target-cr=5"}),
            1);
}

TEST_F(CliFlowTest, VerifyReportsIntactAndCorruptArchives) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("v.dpz"),
                 "--shape=64x96"}),
            0)
      << err_.str();

  ASSERT_EQ(run({"verify", path("v.dpz")}), 0) << err_.str();
  EXPECT_NE(out_.str().find("kind:     dpz"), std::string::npos);
  EXPECT_NE(out_.str().find("format:   v2"), std::string::npos);
  EXPECT_NE(out_.str().find("crc ok"), std::string::npos);
  EXPECT_NE(out_.str().find("OK"), std::string::npos);

  // Flip a payload byte: verify must exit 1, name the bad section, and
  // never throw.
  auto bytes = read_bytes(path("v.dpz"));
  bytes[bytes.size() / 2] ^= 0x08;
  write_bytes(path("v_bad.dpz"), bytes);
  EXPECT_EQ(run({"verify", path("v_bad.dpz")}), 1);
  EXPECT_NE(out_.str().find("crc MISMATCH"), std::string::npos);
  EXPECT_NE(out_.str().find("CORRUPT"), std::string::npos);
}

TEST_F(CliFlowTest, VerifyChunkedShowsFrames) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("vc.dpzc"),
                 "--shape=64x96", "--chunk=2048"}),
            0)
      << err_.str();
  ASSERT_EQ(run({"verify", path("vc.dpzc")}), 0) << err_.str();
  EXPECT_NE(out_.str().find("kind:     chunked"), std::string::npos);
  EXPECT_NE(out_.str().find("frame[0]"), std::string::npos);
}

TEST_F(CliFlowTest, InspectDumpsHeaderAndSections) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("i.dpz"),
                 "--shape=64x96"}),
            0)
      << err_.str();
  ASSERT_EQ(run({"inspect", path("i.dpz")}), 0) << err_.str();
  EXPECT_NE(out_.str().find("shape:    64 x 96"), std::string::npos);
  EXPECT_NE(out_.str().find("dtype:    f32"), std::string::npos);
  EXPECT_NE(out_.str().find("sections:"), std::string::npos);
  EXPECT_NE(out_.str().find("k:"), std::string::npos);
}

TEST_F(CliFlowTest, BestEffortDecompressRecoversDamagedContainer) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("be.dpzc"),
                 "--shape=64x96", "--chunk=2048"}),
            0)
      << err_.str();

  auto bytes = read_bytes(path("be.dpzc"));
  bytes[bytes.size() - 24] ^= 0x10;  // damage the last frame
  write_bytes(path("be.dpzc"), bytes);

  // Strict decode refuses.
  EXPECT_EQ(run({"decompress", path("be.dpzc"), path("be_out.f32")}), 1);
  EXPECT_NE(err_.str().find("checksum"), std::string::npos);

  // Best effort exits 3 (partial) and writes the filled reconstruction.
  EXPECT_EQ(run({"decompress", path("be.dpzc"), path("be_out.f32"),
                 "--best-effort", "--fill=0"}),
            3)
      << err_.str();
  EXPECT_NE(out_.str().find("best effort: recovered 2/3 frames"),
            std::string::npos);
  EXPECT_NO_THROW(read_f32(path("be_out.f32"), {64, 96}));
}

TEST_F(CliFlowTest, ParityCompressRepairsDamageTransparently) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("p.dpzc"),
                 "--shape=64x96", "--chunk=2048", "--parity=3+1"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find(", parity 3+1"), std::string::npos);

  ASSERT_EQ(run({"decompress", path("p.dpzc"), path("p_ref.f32")}), 0)
      << err_.str();

  auto bytes = read_bytes(path("p.dpzc"));
  bytes[bytes.size() / 2] ^= 0x10;  // land inside some frame payload
  write_bytes(path("p.dpzc"), bytes);

  // Strict decode heals the frame from parity and reports it.
  ASSERT_EQ(run({"decompress", path("p.dpzc"), path("p_out.f32")}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("parity: repaired 1 damaged frame"),
            std::string::npos)
      << out_.str();
  EXPECT_EQ(read_bytes(path("p_out.f32")), read_bytes(path("p_ref.f32")));
}

TEST_F(CliFlowTest, RepairRewritesArchiveAndScrubJudgesIt) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("r.dpzc"),
                 "--shape=64x96", "--chunk=2048", "--parity=3+1"}),
            0)
      << err_.str();
  const auto pristine = read_bytes(path("r.dpzc"));

  // Intact archive: repair is a no-op, scrub passes.
  ASSERT_EQ(run({"repair", path("r.dpzc")}), 0) << err_.str();
  EXPECT_NE(out_.str().find("intact, nothing to repair"),
            std::string::npos);
  ASSERT_EQ(run({"verify", path("r.dpzc"), "--scrub"}), 0) << err_.str();
  EXPECT_NE(out_.str().find("parity:   3+1"), std::string::npos);
  EXPECT_NE(out_.str().find("OK"), std::string::npos);

  // Damage a frame: scrub flags it, repair restores the exact bytes.
  auto bytes = pristine;
  bytes[bytes.size() / 2] ^= 0x20;
  write_bytes(path("r.dpzc"), bytes);
  EXPECT_EQ(run({"verify", path("r.dpzc"), "--scrub"}), 1);
  ASSERT_EQ(run({"repair", path("r.dpzc")}), 0) << err_.str();
  EXPECT_NE(out_.str().find("rebuilt from parity, checksum ok"),
            std::string::npos)
      << out_.str();
  EXPECT_EQ(read_bytes(path("r.dpzc")), pristine);
  EXPECT_EQ(run({"verify", path("r.dzc"), "--scrub"}), 1);  // absent file
  EXPECT_EQ(run({"verify", path("r.dpzc"), "--scrub"}), 0);
}

TEST_F(CliFlowTest, ParityFlagValidation) {
  // --parity without --chunk is rejected up front.
  EXPECT_EQ(run({"compress", path("in.f32"), path("x.dpzc"),
                 "--shape=64x96", "--parity=4+2"}),
            1);
  EXPECT_NE(err_.str().find("--chunk"), std::string::npos);
  // Malformed geometries.
  for (const char* bad :
       {"--parity=4", "--parity=0+2", "--parity=4+0", "--parity=300+1",
        "--parity=a+b", "--parity=99999999999999999999999+1",
        "--parity=18446744073709551615+1"}) {
    EXPECT_EQ(run({"compress", path("in.f32"), path("x.dpzc"),
                   "--shape=64x96", "--chunk=2048", bad}),
              1)
        << bad;
    EXPECT_NE(err_.str().find("parity"), std::string::npos) << bad;
  }
  // Repair of a parity-less container that is damaged must fail loudly.
  ASSERT_EQ(run({"compress", path("in.f32"), path("nl.dpzc"),
                 "--shape=64x96", "--chunk=2048"}),
            0);
  auto bytes = read_bytes(path("nl.dpzc"));
  bytes[bytes.size() - 24] ^= 0x10;
  write_bytes(path("nl.dpzc"), bytes);
  EXPECT_EQ(run({"repair", path("nl.dpzc")}), 1);
}

TEST_F(CliFlowTest, InspectShowsParityGeometry) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("ig.dpzc"),
                 "--shape=64x96", "--chunk=2048", "--parity=3+1"}),
            0)
      << err_.str();
  ASSERT_EQ(run({"inspect", path("ig.dpzc")}), 0) << err_.str();
  EXPECT_NE(out_.str().find("parity:   3+1"), std::string::npos)
      << out_.str();

  ASSERT_EQ(run({"compress", path("in.f32"), path("ig0.dpzc"),
                 "--shape=64x96", "--chunk=2048"}),
            0);
  ASSERT_EQ(run({"inspect", path("ig0.dpzc")}), 0) << err_.str();
  EXPECT_NE(out_.str().find("parity:   none"), std::string::npos)
      << out_.str();
}

TEST_F(CliFlowTest, ResourceLimitFlagsGovernDecompress) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("rl.dpz"),
                 "--shape=64x96"}),
            0)
      << err_.str();

  // Generous limits: the decode succeeds normally.
  EXPECT_EQ(run({"decompress", path("rl.dpz"), path("rl_out.f32"),
                 "--max-memory=256M", "--deadline-ms=60000"}),
            0)
      << err_.str();

  // A budget below the decoded size: pre-flight admission rejects with
  // the dedicated exit code, before any output is written.
  EXPECT_EQ(run({"decompress", path("rl.dpz"), path("rl_tiny.f32"),
                 "--max-memory=1K"}),
            4);
  EXPECT_NE(err_.str().find("memory budget"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(path("rl_tiny.f32")));

  // An effectively expired deadline aborts with its own exit code.
  EXPECT_EQ(run({"decompress", path("rl.dpz"), path("rl_late.f32"),
                 "--deadline-ms=0.000001"}),
            5);
  EXPECT_NE(err_.str().find("deadline"), std::string::npos);
}

TEST_F(CliFlowTest, ResourceLimitFlagsGovernCompress) {
  // Compressing 24 KB of input under a 1 KB budget trips the arena at
  // the first charged allocation.
  EXPECT_EQ(run({"compress", path("in.f32"), path("rc.dpz"),
                 "--shape=64x96", "--max-memory=1K"}),
            4);
  EXPECT_NE(err_.str().find("memory budget"), std::string::npos);
  EXPECT_EQ(run({"compress", path("in.f32"), path("rc.dpz"),
                 "--shape=64x96", "--deadline-ms=0.000001"}),
            5);

  // And generous limits leave the archive byte-identical to a plain run.
  ASSERT_EQ(run({"compress", path("in.f32"), path("rc_plain.dpz"),
                 "--shape=64x96"}),
            0);
  ASSERT_EQ(run({"compress", path("in.f32"), path("rc_gov.dpz"),
                 "--shape=64x96", "--max-memory=1G",
                 "--deadline-ms=60000"}),
            0)
      << err_.str();
  EXPECT_EQ(read_bytes(path("rc_plain.dpz")),
            read_bytes(path("rc_gov.dpz")));
}

TEST_F(CliFlowTest, ChunkedVerifyDecodesUnderTheMemoryBudget) {
  // --verify decodes a chunked container under --max-memory too: a budget
  // the compress fits in but the decode's pre-flight does not stops the
  // command with the resource exit code. Compress holds one small frame
  // at a time; the decode also holds the whole 384 KiB output.
  FloatArray field({256, 384});
  for (std::size_t i = 0; i < field.size(); ++i)
    field[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)));
  write_f32(path("big.f32"), field);
  ChunkedConfig config;
  config.chunk_values = 2048;
  config.threads = 1;
  std::uint64_t compress_peak = 0;
  std::vector<std::uint8_t> container;
  {
    ResourceLimits accounting;
    accounting.max_memory_bytes = 1ULL << 40;
    const GovernorScope scope(accounting);
    container = chunked_compress(field, config);
    compress_peak = current_governor()->arena().peak();
  }
  const std::uint64_t decode_peak =
      chunked_decode_preflight(container).peak_bytes;
  ASSERT_LT(compress_peak, decode_peak);
  const std::string budget =
      "--max-memory=" + std::to_string((compress_peak + decode_peak) / 2);

  ASSERT_EQ(run({"compress", path("big.f32"), path("cg.dpzc"),
                 "--shape=256x384", "--chunk=2048", "--threads=1", budget}),
            0)
      << err_.str();
  EXPECT_EQ(read_bytes(path("cg.dpzc")), container);
  EXPECT_EQ(run({"compress", path("big.f32"), path("cg.dpzc"),
                 "--shape=256x384", "--chunk=2048", "--threads=1", budget,
                 "--verify"}),
            4);
  EXPECT_NE(err_.str().find("memory budget"), std::string::npos);
}

TEST_F(CliFlowTest, DecompressRoutesGoldenChunkedContainers) {
  // Both committed container generations (v1 "DZCK", v2 "DZC2") are
  // recognized by their magic and decoded as chunked containers.
  for (const std::string stem :
       {"chunked_2d_f32_strict", "chunked_2d_f32_strict.v2"}) {
    ASSERT_EQ(run({"decompress",
                   std::string(DPZ_GOLDEN_DIR) + "/" + stem + ".dpz",
                   path(stem + ".f32")}),
              0)
        << stem << ": " << err_.str();
    EXPECT_NE(out_.str().find(" frames)"), std::string::npos) << stem;
    EXPECT_NO_THROW(read_f32(path(stem + ".f32"), {128, 96})) << stem;
  }
}

TEST_F(CliFlowTest, MalformedResourceFlagsFail) {
  EXPECT_EQ(run({"decompress", path("in.f32"), path("x.f32"),
                 "--max-memory=64Q"}),
            1);
  EXPECT_NE(err_.str().find("byte size"), std::string::npos);
  EXPECT_EQ(run({"decompress", path("in.f32"), path("x.f32"),
                 "--max-memory="}),
            1);
  EXPECT_EQ(run({"decompress", path("in.f32"), path("x.f32"),
                 "--max-memory=99999999999999999999999"}),
            1);
  EXPECT_NE(err_.str().find("byte size"), std::string::npos);
  EXPECT_EQ(run({"decompress", path("in.f32"), path("x.f32"),
                 "--deadline-ms=-5"}),
            1);
}

// Numeric flags parse in full: trailing junk, an out-of-range value or a
// non-finite number is a usage error naming the flag (exit 1), never a
// silent fallback to the default or a truncated prefix.
TEST_F(CliFlowTest, MalformedNumericFlagsFail) {
  for (const std::string flag :
       {"--threads=abc", "--chunk=abc", "--deadline-ms=abc",
        "--dct-keep=0.5x", "--tve=1e999",
        "--threads=99999999999999999999"}) {
    EXPECT_EQ(run({"compress", path("in.f32"), path("x.dpz"),
                   "--shape=64x96", flag}),
              1)
        << flag;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(err_.str().find(name), std::string::npos)
        << flag << ": " << err_.str();
  }
  EXPECT_FALSE(std::filesystem::exists(path("x.dpz")));
}

// A negative size is rejected instead of wrapping to 2^64 - N: --chunk=-5
// used to write a 0-frame container and report a huge ratio.
TEST_F(CliFlowTest, NegativeCountFlagsFail) {
  EXPECT_EQ(run({"compress", path("in.f32"), path("x.dpz"),
                 "--shape=64x96", "--chunk=-5"}),
            1);
  EXPECT_NE(err_.str().find("--chunk"), std::string::npos) << err_.str();
  EXPECT_FALSE(std::filesystem::exists(path("x.dpz")));

  ASSERT_EQ(run({"compress", path("in.f32"), path("a.dpz"),
                 "--shape=64x96"}),
            0)
      << err_.str();
  EXPECT_EQ(run({"decompress", path("a.dpz"), path("a.f32"),
                 "--components=-1"}),
            1);
  EXPECT_NE(err_.str().find("--components"), std::string::npos)
      << err_.str();
}

// A chunk above the parser's 2^40-value cap used to write a one-frame
// container that decompress then rejected; compress now refuses it.
TEST_F(CliFlowTest, ChunkAboveTheCapFails) {
  EXPECT_EQ(run({"compress", path("in.f32"), path("x.dpzc"),
                 "--shape=64x96", "--chunk=2199023255552"}),
            1);
  EXPECT_NE(err_.str().find("chunk"), std::string::npos) << err_.str();
  // A usage error prints its message, not the source location or the
  // C++ condition behind it.
  EXPECT_EQ(err_.str().find("requirement failed"), std::string::npos)
      << err_.str();
  EXPECT_EQ(err_.str().find(".cpp:"), std::string::npos) << err_.str();
  EXPECT_FALSE(std::filesystem::exists(path("x.dpzc")));
}

TEST_F(CliFlowTest, InspectPrintsDecodePreflight) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("pf.dpz"),
                 "--shape=64x96"}),
            0)
      << err_.str();
  ASSERT_EQ(run({"inspect", path("pf.dpz")}), 0) << err_.str();
  // 64 x 96 f32 = 24576 bytes claimed; the peak estimate sits above it.
  EXPECT_NE(out_.str().find("decoded:  24.0 KB (header claim)"),
            std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("peak est:"), std::string::npos);
}

TEST_F(CliFlowTest, InspectReportsProblemsForTruncatedHeader) {
  ASSERT_EQ(run({"compress", path("in.f32"), path("t.dpz"),
                 "--shape=64x96"}),
            0)
      << err_.str();
  auto bytes = read_bytes(path("t.dpz"));
  bytes.resize(10);  // cut inside the error-bound field
  write_bytes(path("t.dpz"), bytes);

  // The report names the damage itself instead of dying on a second
  // parse: no geometry lines, a problem line, exit 1.
  EXPECT_EQ(run({"inspect", path("t.dpz")}), 1);
  EXPECT_NE(out_.str().find("kind:     dpz"), std::string::npos);
  EXPECT_NE(out_.str().find("problem:  byte stream truncated"),
            std::string::npos)
      << out_.str();
  EXPECT_EQ(out_.str().find("shape:"), std::string::npos);
  EXPECT_EQ(err_.str().find("error:"), std::string::npos) << err_.str();
}

TEST_F(CliFlowTest, VerifyMissingOperandFails) {
  EXPECT_EQ(run({"verify"}), 1);
  EXPECT_EQ(run({"inspect"}), 1);
}

TEST_F(CliFlowTest, WrongShapeSizeFails) {
  EXPECT_EQ(run({"compress", path("in.f32"), path("x.dpz"),
                 "--shape=10x10"}),
            1);
}

}  // namespace
}  // namespace dpz::tools
