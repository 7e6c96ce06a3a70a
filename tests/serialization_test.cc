#include "hierarchy/serialization.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include <cstdint>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "sim/plant.h"
#include "util/rng.h"

namespace hod::hierarchy {
namespace {

sim::SimulatedPlant SmallPlant() {
  sim::PlantOptions options;
  options.num_lines = 1;
  options.machines_per_line = 2;
  options.jobs_per_machine = 3;
  options.preparation_samples = 16;
  options.warm_up_samples = 24;
  options.calibration_samples = 16;
  options.printing_samples = 32;
  options.cool_down_samples = 16;
  options.seed = 12;
  return sim::BuildPlant(options, sim::ScenarioOptions{}).value();
}

TEST(Serialization, RoundTripPreservesStructure) {
  const auto plant = SmallPlant();
  std::stringstream stream;
  ASSERT_TRUE(WriteProduction(plant.production, stream).ok());

  auto restored_or = ReadProduction(stream);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  const Production& restored = restored_or.value();

  ASSERT_EQ(restored.lines.size(), plant.production.lines.size());
  EXPECT_EQ(restored.sensors.size(), plant.production.sensors.size());
  for (size_t l = 0; l < restored.lines.size(); ++l) {
    const auto& a = plant.production.lines[l];
    const auto& b = restored.lines[l];
    EXPECT_EQ(a.id, b.id);
    ASSERT_EQ(a.machines.size(), b.machines.size());
    ASSERT_EQ(a.environment.size(), b.environment.size());
    for (size_t m = 0; m < a.machines.size(); ++m) {
      ASSERT_EQ(a.machines[m].jobs.size(), b.machines[m].jobs.size());
      EXPECT_EQ(a.machines[m].configuration.values(),
                b.machines[m].configuration.values());
    }
  }
}

TEST(Serialization, RoundTripIsBitExactOnSeries) {
  const auto plant = SmallPlant();
  std::stringstream stream;
  ASSERT_TRUE(WriteProduction(plant.production, stream).ok());
  auto restored = ReadProduction(stream).value();

  const auto& original_job = plant.production.lines[0].machines[0].jobs[0];
  const auto& restored_job = restored.lines[0].machines[0].jobs[0];
  ASSERT_EQ(original_job.id, restored_job.id);
  EXPECT_EQ(original_job.setup.values(), restored_job.setup.values());
  EXPECT_EQ(original_job.caq.values(), restored_job.caq.values());
  ASSERT_EQ(original_job.phases.size(), restored_job.phases.size());
  for (size_t p = 0; p < original_job.phases.size(); ++p) {
    const auto& phase_a = original_job.phases[p];
    const auto& phase_b = restored_job.phases[p];
    EXPECT_EQ(phase_a.events.symbols(), phase_b.events.symbols());
    ASSERT_EQ(phase_a.sensor_series.size(), phase_b.sensor_series.size());
    for (const auto& [sensor_id, series] : phase_a.sensor_series) {
      const auto it = phase_b.sensor_series.find(sensor_id);
      ASSERT_NE(it, phase_b.sensor_series.end());
      // Bit-exact double round trip via %.17g.
      EXPECT_EQ(series.values(), it->second.values()) << sensor_id;
      EXPECT_EQ(series.start_time(), it->second.start_time());
      EXPECT_EQ(series.interval(), it->second.interval());
    }
  }
}

TEST(Serialization, SensorMetadataSurvives) {
  const auto plant = SmallPlant();
  std::stringstream stream;
  ASSERT_TRUE(WriteProduction(plant.production, stream).ok());
  auto restored = ReadProduction(stream).value();
  const std::string id = "line1.m1.bed_temp_a";
  auto original = plant.production.sensors.Get(id).value();
  auto copied = restored.sensors.Get(id).value();
  EXPECT_EQ(original.unit, copied.unit);
  EXPECT_EQ(original.machine_id, copied.machine_id);
  EXPECT_EQ(original.redundancy_group, copied.redundancy_group);
  auto group = restored.sensors.CorrespondingSensors(id).value();
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0], "line1.m1.bed_temp_b");
}

TEST(Serialization, RedundancyGroupMembershipSurvivesRoundTrip) {
  // The peer-group layer is configured from CorrespondingSensors, so a
  // restored production must answer that query identically — including
  // the degenerate cases (singleton group, no group).
  Production production;
  ASSERT_TRUE(
      production.sensors.Register({"m1.bed_a", "", "degC", "m1", "bed"}).ok());
  ASSERT_TRUE(
      production.sensors.Register({"m1.bed_b", "", "degC", "m1", "bed"}).ok());
  ASSERT_TRUE(
      production.sensors.Register({"m1.bed_c", "", "degC", "m1", "bed"}).ok());
  ASSERT_TRUE(
      production.sensors.Register({"m1.gyro", "", "dps", "m1", "imu"}).ok());
  ASSERT_TRUE(
      production.sensors.Register({"m1.free", "", "", "m1", ""}).ok());

  std::stringstream stream;
  ASSERT_TRUE(WriteProduction(production, stream).ok());
  auto restored = ReadProduction(stream).value();
  ASSERT_EQ(restored.sensors.size(), production.sensors.size());
  for (const std::string& id : production.sensors.ids()) {
    auto want = production.sensors.CorrespondingSensors(id).value();
    auto got = restored.sensors.CorrespondingSensors(id).value();
    EXPECT_EQ(got, want) << id;
  }
  EXPECT_EQ(restored.sensors.CorrespondingSensors("m1.bed_a").value().size(),
            2u);
  EXPECT_TRUE(
      restored.sensors.CorrespondingSensors("m1.gyro").value().empty());
  EXPECT_FALSE(restored.sensors.CorrespondingSensors("ghost").ok());
}

TEST(Serialization, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_FALSE(ReadProduction(empty).ok());

  std::stringstream bad_magic("NOPE 1\nEND\n");
  EXPECT_FALSE(ReadProduction(bad_magic).ok());

  std::stringstream bad_version("HODPROD 99\nEND\n");
  EXPECT_FALSE(ReadProduction(bad_version).ok());

  std::stringstream truncated("HODPROD 1\nLINE l1\n");
  EXPECT_FALSE(ReadProduction(truncated).ok());

  std::stringstream orphan_job("HODPROD 1\nJOB j1 0 1\nEND\n");
  auto status = ReadProduction(orphan_job);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.status().message().find("line 2"), std::string::npos);
}

TEST(Serialization, UnknownTagReported) {
  std::stringstream stream("HODPROD 1\nWIDGET x\nEND\n");
  auto status = ReadProduction(stream);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.status().message().find("unknown tag"),
            std::string::npos);
}

TEST(Serialization, DetectorRunsOnRestoredProduction) {
  // The practical point of serialization: a restored plant must be fully
  // usable by the hierarchical detector.
  const auto plant = SmallPlant();
  std::stringstream stream;
  ASSERT_TRUE(WriteProduction(plant.production, stream).ok());
  auto restored = ReadProduction(stream).value();
  EXPECT_TRUE(ValidateProduction(restored).ok());
  EXPECT_EQ(CountJobs(restored), CountJobs(plant.production));
}

TEST(Serialization, FuzzedGarbageNeverCrashes) {
  // Deterministic structured fuzz: random tags, counts, and tokens. The
  // parser must always return a clean Status, never crash or hang.
  hod::Rng rng(2026);
  const char* tags[] = {"SENSOR", "LINE", "MACHINE", "CONFIG", "JOB",
                        "SETUP",  "CAQ",  "PHASE",   "EVENTS", "SERIES",
                        "ENV",    "END",  "GARBAGE"};
  for (int round = 0; round < 200; ++round) {
    std::stringstream stream;
    if (rng.NextBernoulli(0.8)) stream << "HODPROD 1\n";
    const int lines = static_cast<int>(rng.NextBelow(12));
    for (int l = 0; l < lines; ++l) {
      stream << tags[rng.NextBelow(std::size(tags))];
      const int tokens = static_cast<int>(rng.NextBelow(6));
      for (int t = 0; t < tokens; ++t) {
        if (rng.NextBernoulli(0.5)) {
          stream << " " << rng.UniformInt(-5, 100);
        } else {
          stream << " tok" << rng.NextBelow(5);
        }
      }
      stream << "\n";
    }
    auto result = ReadProduction(stream);
    // Either a (rare) valid parse or a clean error — both acceptable.
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

// ---- Binary codec ----------------------------------------------------------

TEST(ByteCodec, FieldsAreLittleEndianAndRoundTrip) {
  bin::ByteWriter out;
  out.WriteU8(0xAB);
  out.WriteU32(0x01020304u);
  out.WriteU64(0x0102030405060708ull);
  out.WriteF64(-0.0);
  out.WriteBool(true);
  out.WriteString("hod");
  const std::string& bytes = out.bytes();
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 1 + 4 + 3);
  EXPECT_EQ(bytes.substr(1, 4), std::string("\x04\x03\x02\x01", 4));
  EXPECT_EQ(bytes.substr(5, 8),
            std::string("\x08\x07\x06\x05\x04\x03\x02\x01", 8));
  EXPECT_EQ(bytes.substr(13, 8), std::string("\0\0\0\0\0\0\0\x80", 8));

  bin::ByteReader in(bytes);
  EXPECT_EQ(in.remaining(), bytes.size());
  EXPECT_EQ(in.ReadU8().value(), 0xAB);
  EXPECT_EQ(in.ReadU32().value(), 0x01020304u);
  EXPECT_EQ(in.ReadU64().value(), 0x0102030405060708ull);
  const double zero = in.ReadF64().value();
  EXPECT_TRUE(zero == 0.0 && std::signbit(zero));
  EXPECT_TRUE(in.ReadBool().value());
  EXPECT_EQ(in.ReadString().value(), "hod");
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(in.ReadU8().status().code(), StatusCode::kOutOfRange);
}

TEST(ByteCodec, VectorsRoundTripBitExact) {
  const std::vector<double> values = {
      1.0, -2.5, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(), 1e308};
  const std::vector<uint64_t> counts = {0, 1, ~uint64_t{0}, 1ull << 40};
  bin::ByteWriter out;
  out.WriteF64Vector(values);
  out.WriteU64Vector(counts);
  out.WriteF64Vector({});
  // A vector is its u32 count followed by the same bytes per-value
  // writes produce.
  bin::ByteWriter per_value;
  per_value.WriteU32(static_cast<uint32_t>(values.size()));
  for (double value : values) per_value.WriteF64(value);
  EXPECT_EQ(out.bytes().substr(0, per_value.size()), per_value.bytes());

  bin::ByteReader in(out.bytes());
  std::vector<double> doubles = {42.0};  // replaced, not appended to
  std::vector<uint64_t> words;
  std::vector<double> empty = {1.0};
  ASSERT_TRUE(in.ReadF64Vector(doubles).ok());
  ASSERT_TRUE(in.ReadU64Vector(words).ok());
  ASSERT_TRUE(in.ReadF64Vector(empty).ok());
  EXPECT_EQ(in.remaining(), 0u);
  ASSERT_EQ(doubles.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(doubles[i]),
              std::bit_cast<uint64_t>(values[i]));
  }
  EXPECT_EQ(words, counts);
  EXPECT_TRUE(empty.empty());
}

TEST(ByteCodec, ReadsAreBoundedByTheSpan) {
  bin::ByteWriter out;
  out.WriteU32(3);  // claims three doubles...
  out.WriteF64(1.0);
  out.WriteF64(2.0);  // ...but holds two
  bin::ByteReader short_vector(out.bytes());
  std::vector<double> values;
  EXPECT_EQ(short_vector.ReadF64Vector(values).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(values.empty()) << "nothing is allocated for a refused count";

  bin::ByteWriter huge;
  huge.WriteU32(0x00FFFFFFu);  // a forged length
  bin::ByteReader forged_vector(huge.bytes());
  std::vector<uint64_t> words;
  EXPECT_EQ(forged_vector.ReadU64Vector(words).code(),
            StatusCode::kInvalidArgument);
  bin::ByteReader forged_string(huge.bytes());
  EXPECT_EQ(forged_string.ReadString().status().code(),
            StatusCode::kOutOfRange);

  bin::ByteWriter text;
  text.WriteString("abcdef");
  const std::string cut = text.bytes().substr(0, text.size() - 1);
  bin::ByteReader truncated(cut);
  EXPECT_EQ(truncated.ReadString().status().code(), StatusCode::kOutOfRange);

  // A failed read leaves the cursor where it was.
  const std::string three(3, '\x01');
  bin::ByteReader partial(three);
  EXPECT_FALSE(partial.ReadU32().ok());
  EXPECT_EQ(partial.remaining(), 3u);
  EXPECT_EQ(partial.ReadU8().value(), 1u);

  bin::ByteReader two_bytes(std::string_view("\x02\x00", 2));
  EXPECT_EQ(two_bytes.ReadBool().status().code(), StatusCode::kInvalidArgument);
}

TEST(ByteCodec, CheckCountBoundsRecordsByTheBytesLeft) {
  const std::string bytes(100, '\0');
  bin::ByteReader in(bytes);
  EXPECT_TRUE(in.CheckCount(10, 10, "record count").ok());
  EXPECT_TRUE(in.CheckCount(0, 64, "record count").ok());
  const Status refused = in.CheckCount(11, 10, "record count");
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.message(), "implausible record count");
  EXPECT_FALSE(in.CheckCount(uint64_t{1} << 40, 1, "record count").ok());
}

/// A stream buffer that cannot seek, like a pipe.
class OneWayBuffer : public std::streambuf {
 public:
  explicit OneWayBuffer(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 private:
  std::string data_;
};

TEST(ByteCodec, ReadToEndDrainsSeekableAndPlainStreams) {
  const std::string payload(70000, 'x');
  std::istringstream seekable(payload);
  seekable.get();  // starts mid-stream
  EXPECT_EQ(bin::ReadToEnd(seekable), payload.substr(1));
  OneWayBuffer pipe(payload);
  std::istream one_way(&pipe);
  EXPECT_EQ(bin::ReadToEnd(one_way), payload);
  std::stringstream empty;
  EXPECT_EQ(bin::ReadToEnd(empty), "");
}

}  // namespace
}  // namespace hod::hierarchy
