#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/bytes.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/yaml_lite.h"

namespace flexran::util {
namespace {

// ---------------------------------------------------------------- Result --

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Error::not_found("missing UE");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::not_found);
  EXPECT_EQ(r.error().message, "missing UE");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, VoidSpecialization) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status bad = Error::transport_failure("deadline");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Error::Code::transport_failure);
}

// --------------------------------------------------------------- Logging --

TEST(Logging, SinkReceivesEnabledLevelsOnly) {
  auto& logger = Logger::instance();
  const auto previous_level = logger.level();
  logger.set_level(LogLevel::warn);

  testing::internal::CaptureStderr();
  FLEXRAN_LOG(debug, "test") << "filtered " << 1;
  FLEXRAN_LOG(warn, "test") << "kept " << 2;
  FLEXRAN_LOG(error, "test") << "kept " << 3;
  logger.set_level(LogLevel::off);
  FLEXRAN_LOG(error, "test") << "suppressed";
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[WARN] test: kept 2\n[ERROR] test: kept 3\n");

  logger.set_level(previous_level);
}

// ------------------------------------------------------------ ByteBuffer --

/// The little-endian u32 at the front of `bytes`.
std::uint32_t le32(std::span<const std::uint8_t> bytes) {
  return static_cast<std::uint32_t>(bytes[0]) | static_cast<std::uint32_t>(bytes[1]) << 8 |
         static_cast<std::uint32_t>(bytes[2]) << 16 | static_cast<std::uint32_t>(bytes[3]) << 24;
}

TEST(ByteBuffer, FixedWidthRoundTrip) {
  ByteBuffer buf;
  buf.write_u32(0xdeadbeef);
  buf.write_u64(0x0102030405060708ull);
  buf.write_string("flexran");

  EXPECT_EQ(buf.size(), 4u + 8 + 7);
  const auto bytes = buf.contents();
  EXPECT_EQ(le32(bytes), 0xdeadbeefu);
  EXPECT_EQ(le32(bytes.subspan(4)), 0x05060708u);
  EXPECT_EQ(le32(bytes.subspan(8)), 0x01020304u);
  buf.skip(12);
  const auto tail = buf.remaining();
  EXPECT_EQ(std::string(tail.begin(), tail.end()), "flexran");
}

TEST(ByteBuffer, LittleEndianLayout) {
  ByteBuffer buf;
  buf.write_u32(0x01020304);
  const auto bytes = buf.contents();
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[3], 0x01);
}

TEST(ByteBuffer, CompactNowDropsConsumedPrefix) {
  ByteBuffer buf;
  buf.write_u32(1);
  buf.write_u32(2);
  buf.skip(4);
  buf.compact_now();
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(le32(buf.remaining()), 2u);
}

TEST(ByteBuffer, CompactIsAmortized) {
  // Small consumed prefixes are kept (no memmove per call)...
  ByteBuffer buf;
  buf.write_u32(1);
  buf.write_u32(2);
  buf.skip(4);
  buf.compact();
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.readable(), 4u);
  // ...a fully drained buffer resets cheaply...
  buf.skip(4);
  buf.compact();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.readable(), 0u);
  // ...and a prefix past the threshold is actually erased.
  const std::vector<std::uint8_t> block(kCompactThresholdBytes, 0xab);
  buf.write_bytes(block);
  buf.write_u32(3);
  buf.skip(kCompactThresholdBytes);
  buf.compact();
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(le32(buf.remaining()), 3u);
}

TEST(ByteBuffer, SeekRewindsAndInsertZerosWidens) {
  ByteBuffer buf;
  buf.write_u32(7);
  buf.write_u32(9);
  buf.skip(4);
  const std::size_t mark = 4;
  buf.skip(4);
  EXPECT_EQ(buf.readable(), 0u);
  buf.seek(mark);
  EXPECT_EQ(le32(buf.remaining()), 9u);
  // insert_zeros opens a gap without disturbing surrounding bytes.
  ByteBuffer enc;
  enc.write_u8(0xaa);
  enc.write_u8(0xbb);
  enc.insert_zeros(1, 2);
  const auto bytes = enc.contents();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0xaa);
  EXPECT_EQ(bytes[1], 0);
  EXPECT_EQ(bytes[2], 0);
  EXPECT_EQ(bytes[3], 0xbb);
}

// ------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

/// Unbiased sample variance of `samples`.
double sample_variance(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double v : samples) sum += v;
  const double mean = sum / static_cast<double>(samples.size());
  double squares = 0.0;
  for (double v : samples) squares += (v - mean) * (v - mean);
  return squares / static_cast<double>(samples.size() - 1);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(rng.normal(10.0, 2.0));
    stats.add(samples.back());
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(sample_variance(samples)), 2.0, 0.1);
}

// ----------------------------------------------------------------- Stats --

TEST(RunningStats, MomentsAndExtremes) {
  RunningStats s;
  const std::vector<double> samples = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double v : samples) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(std::sqrt(sample_variance(samples)), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.total(), 40.0);
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e(0.5);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);  // first sample seeds
  for (int i = 0; i < 50; ++i) e.add(4.0);
  EXPECT_NEAR(e.value(), 4.0, 1e-6);
}

TEST(SampleSet, Quantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(TimeSeries, WindowedMean) {
  TimeSeries ts;
  ts.add(0.0, 1.0);
  ts.add(1.0, 2.0);
  ts.add(2.0, 3.0);
  ts.add(3.0, 10.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(0.0, 3.0), 2.0);
}

// --------------------------------------------------------------- Strings --

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, ParseNumbers) {
  long long i = 0;
  EXPECT_TRUE(parse_int(" 42 ", i));
  EXPECT_EQ(i, 42);
  EXPECT_FALSE(parse_int("4x", i));
  double d = 0;
  EXPECT_TRUE(parse_double("2.5", d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_FALSE(parse_double("", d));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 1.239), "1.24");
}

// ------------------------------------------------------------- YAML-lite --

TEST(YamlLite, ParsesPolicyReconfigurationShape) {
  // The structure of paper Fig. 3: module -> VSFs -> behavior/parameters.
  const char* text =
      "mac:\n"
      "  dl_ue_scheduler:\n"
      "    behavior: local_pf\n"
      "    parameters:\n"
      "      fairness: 0.8\n"
      "      rb_share: [0.7, 0.3]\n"
      "  ul_ue_scheduler:\n"
      "    behavior: remote\n";
  auto doc = parse_yaml(text);
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const YamlNode& root = doc.value();
  ASSERT_TRUE(root.is_map());
  const YamlNode* mac = root.find("mac");
  ASSERT_NE(mac, nullptr);
  const YamlNode* dl = mac->find("dl_ue_scheduler");
  ASSERT_NE(dl, nullptr);
  EXPECT_EQ(dl->find("behavior")->as_string(), "local_pf");
  const YamlNode* params = dl->find("parameters");
  ASSERT_NE(params, nullptr);
  EXPECT_DOUBLE_EQ(params->find("fairness")->as_double().value(), 0.8);
  const YamlNode* share = params->find("rb_share");
  ASSERT_TRUE(share->is_sequence());
  ASSERT_EQ(share->items().size(), 2u);
  EXPECT_DOUBLE_EQ(share->items()[0].as_double().value(), 0.7);
  EXPECT_EQ(mac->find("ul_ue_scheduler")->find("behavior")->as_string(), "remote");
}

TEST(YamlLite, BlockSequences) {
  const char* text =
      "vsfs:\n"
      "  - name: a\n"
      "    weight: 1\n"
      "  - name: b\n"
      "    weight: 2\n";
  auto doc = parse_yaml(text);
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const YamlNode* vsfs = doc.value().find("vsfs");
  ASSERT_NE(vsfs, nullptr);
  ASSERT_TRUE(vsfs->is_sequence());
  ASSERT_EQ(vsfs->items().size(), 2u);
  EXPECT_EQ(vsfs->items()[0].find("name")->as_string(), "a");
  EXPECT_EQ(vsfs->items()[1].find("weight")->as_int().value(), 2);
}

TEST(YamlLite, ScalarSequencesAndComments) {
  const char* text =
      "# comment line\n"
      "values:\n"
      "  - 1\n"
      "  - 2\n"
      "name: test # trailing comment\n";
  auto doc = parse_yaml(text);
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_EQ(doc.value().find("values")->items().size(), 2u);
  EXPECT_EQ(doc.value().find("name")->as_string(), "test");
}

TEST(YamlLite, MalformedInputFails) {
  auto doc = parse_yaml("just a bare line without colon\n");
  EXPECT_FALSE(doc.ok());
}

TEST(YamlLite, EmptyDocumentIsEmptyMap) {
  auto doc = parse_yaml("\n  \n# only comments\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc.value().is_map());
  EXPECT_TRUE(doc.value().entries().empty());
}

}  // namespace
}  // namespace flexran::util
