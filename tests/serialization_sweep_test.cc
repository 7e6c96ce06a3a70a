// Bounded-decoder sweep over the binary images: every truncation and
// every forged 4-byte word of a small engine checkpoint and hub state
// must come back as a Status or a value — never a crash, never an
// allocation sized from a forged count, never a slow read.
//
// Not covered, by design: a corrupted *value* field (a timestamp, a
// counter, a score) still reads back as ok. Nothing in today's formats
// can detect it; that waits for per-section CRCs (ROADMAP item 6).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hierarchy/serialization.h"
#include "serve/codec.h"
#include "serve/hub.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "util/rng.h"

// This binary replaces the global operator new to record the largest
// single allocation made while a probed read runs.
namespace {
std::atomic<bool> g_tracking{false};
std::atomic<size_t> g_largest{0};
}  // namespace

// All three stay out of line, so the compiler never pairs an inlined
// malloc with a free (a false -Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen && !g_largest.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace hod::stream {
namespace {

using hierarchy::ProductionLevel;

/// The slowest single read the sweep tolerates. Before reads were bounded
/// by the bytes remaining, one forged findings count took 2.6 s.
constexpr double kMaxReadSeconds = 0.5;

struct Probe {
  Status status;
  double seconds = 0.0;
  size_t largest_allocation = 0;
};

template <typename Read>
Probe Measure(const Read& read) {
  g_largest.store(0);
  g_tracking.store(true);
  const auto start = std::chrono::steady_clock::now();
  Status status = read();
  const auto stop = std::chrono::steady_clock::now();
  g_tracking.store(false);
  return {std::move(status),
          std::chrono::duration<double>(stop - start).count(),
          g_largest.load()};
}

/// No single allocation of a read may exceed a small multiple of the
/// image: parsed records are a few times larger than their encoding, and
/// nothing is sized from a count the bytes cannot back.
size_t AllocationBound(const std::string& image) {
  return 8 * image.size() + 4096;
}

StreamEngineOptions SyncOptions() {
  StreamEngineOptions options;
  options.synchronous = true;
  options.monitor.warmup = 32;
  options.snapshot_every = 8;
  options.health.staleness_timeout = 0.0;
  return options;
}

/// The one-sensor engine of EngineCheckpoint.ReadRejectsCorruptImages
/// (same seed, noise and length), with a fault burst added so the image
/// carries alarms and findings.
std::string OneSensorImage(serve::SnapshotHub* hub = nullptr) {
  StreamEngineOptions options = SyncOptions();
  if (hub != nullptr) {
    options.snapshot_sink = [hub](const EngineSnapshot& snapshot) {
      hub->Publish(snapshot);
    };
  }
  StreamEngine engine(options);
  EXPECT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
  EXPECT_TRUE(engine.Start().ok());
  Rng rng(61);
  double noise = 0.0;
  for (size_t t = 0; t < 100; ++t) {
    noise = 0.7 * noise + rng.Gaussian(0.0, 0.25);
    const double burst = t >= 60 && t < 75 ? 6.0 : 0.0;
    EXPECT_TRUE(engine
                    .Ingest({"s", ProductionLevel::kPhase,
                             static_cast<double>(t), 50.0 + noise + burst})
                    .ok());
  }
  EXPECT_TRUE(engine.Flush().ok());
  std::ostringstream os;
  EXPECT_TRUE(engine.Checkpoint(os).ok());
  return os.str();
}

/// Overwrites the 4 bytes at `offset` with 0x00FFFFFF (little-endian):
/// as a count or length it claims 16.7M records.
std::string Forge(const std::string& image, size_t offset) {
  std::string forged = image;
  forged[offset] = '\xFF';
  forged[offset + 1] = '\xFF';
  forged[offset + 2] = '\xFF';
  forged[offset + 3] = '\0';
  return forged;
}

Status ReadCheckpoint(const std::string& image) {
  return ReadEngineCheckpoint(image).status();
}

TEST(DecoderSweep, EngineCheckpointTruncatedAtEveryOffset) {
  const std::string image = OneSensorImage();
  ASSERT_TRUE(ReadEngineCheckpoint(image).ok());
  double slowest = 0.0;
  for (size_t length = 0; length < image.size(); ++length) {
    const std::string prefix = image.substr(0, length);
    const Probe probe = Measure([&] { return ReadCheckpoint(prefix); });
    EXPECT_FALSE(probe.status.ok()) << "prefix of " << length << " bytes";
    EXPECT_LE(probe.largest_allocation, AllocationBound(image))
        << "prefix of " << length << " bytes";
    slowest = std::max(slowest, probe.seconds);
  }
  EXPECT_LT(slowest, kMaxReadSeconds);
}

TEST(DecoderSweep, EngineCheckpointWithAForgedWordAtEveryOffset) {
  const std::string image = OneSensorImage();
  size_t accepted = 0;
  size_t refused_counts = 0;
  double slowest = 0.0;
  for (size_t offset = 0; offset + 4 <= image.size(); ++offset) {
    const std::string forged = Forge(image, offset);
    const Probe probe = Measure([&] { return ReadCheckpoint(forged); });
    if (probe.status.ok()) ++accepted;
    if (probe.status.message().rfind("implausible", 0) == 0) {
      EXPECT_EQ(probe.status.code(), StatusCode::kInvalidArgument);
      ++refused_counts;
    }
    EXPECT_LE(probe.largest_allocation, AllocationBound(image))
        << "offset " << offset << ": " << probe.status.ToString();
    slowest = std::max(slowest, probe.seconds);
  }
  EXPECT_LT(slowest, kMaxReadSeconds);
  EXPECT_GT(refused_counts, 0u);
  // Forged value fields parse: no CRC guards them yet (ROADMAP item 6).
  EXPECT_GT(accepted, 0u);
}

TEST(DecoderSweep, InflatedFindingCountIsRefusedBeforeAllocating) {
  const std::string image = OneSensorImage();
  auto checkpoint = ReadEngineCheckpoint(image);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  ASSERT_FALSE(checkpoint->findings.empty());
  // The findings sit between their count and the fixed-size stats
  // section that closes the image.
  EngineCheckpoint without = *checkpoint;
  without.findings.clear();
  hierarchy::bin::ByteWriter out;
  WriteEngineCheckpoint(without, out);
  const size_t stats_bytes =
      8 * (kNumCounters + 3 * hierarchy::kNumLevels + kBatchBuckets);
  const size_t count_offset = out.size() - stats_bytes - 4;
  hierarchy::bin::ByteReader count(
      std::string_view(image).substr(count_offset, 4));
  ASSERT_EQ(count.ReadU32().value(), checkpoint->findings.size());

  const std::string forged = Forge(image, count_offset);
  const Probe probe = Measure([&] { return ReadCheckpoint(forged); });
  EXPECT_EQ(probe.status.code(), StatusCode::kInvalidArgument)
      << probe.status.ToString();
  EXPECT_EQ(probe.status.message(), "implausible finding count");
  EXPECT_LE(probe.largest_allocation, AllocationBound(image));
  EXPECT_LT(probe.seconds, kMaxReadSeconds);
}

std::string HubImage(serve::SnapshotHub& hub) {
  std::ostringstream os;
  EXPECT_TRUE(hub.SaveState(os).ok());
  return os.str();
}

serve::SnapshotHubOptions HubOptions() {
  serve::SnapshotHubOptions options;
  options.history_capacity = 16;
  return options;
}

/// Restores `image` into `hub`, probed; the hub is built outside the
/// probe so only the restore's own allocations count.
Probe RestoreHub(serve::SnapshotHub& hub, const std::string& image) {
  return Measure([&] {
    std::istringstream is(image);
    return hub.RestoreState(is);
  });
}

TEST(DecoderSweep, HubStateRefusesAnInflatedHistoryCount) {
  serve::SnapshotHub hub(HubOptions());
  OneSensorImage(&hub);
  const std::optional<EngineSnapshot> latest = hub.Latest();
  ASSERT_TRUE(latest.has_value());
  ASSERT_GT(hub.HistorySize(0), 0u);
  const std::string image = HubImage(hub);
  serve::SnapshotHub revived(HubOptions());
  ASSERT_TRUE(RestoreHub(revived, image).status.ok());

  // magic, version, have-last byte, the last snapshot, then ring 0's
  // entry count.
  const size_t count_offset =
      4 + 4 + 1 + serve::EncodeSnapshotBytes(*latest).size();
  const std::string forged = Forge(image, count_offset);
  const Probe probe = RestoreHub(revived, forged);
  EXPECT_EQ(probe.status.code(), StatusCode::kInvalidArgument)
      << probe.status.ToString();
  EXPECT_EQ(probe.status.message(), "implausible history entry count");
  EXPECT_LE(probe.largest_allocation, AllocationBound(image));
}

TEST(DecoderSweep, HubStateTruncatedOrForgedAtEveryOffset) {
  serve::SnapshotHub hub(HubOptions());
  OneSensorImage(&hub);
  const std::string image = HubImage(hub);
  serve::SnapshotHub revived(HubOptions());
  double slowest = 0.0;
  for (size_t length = 0; length < image.size(); ++length) {
    const std::string prefix = image.substr(0, length);
    const Probe probe = RestoreHub(revived, prefix);
    EXPECT_FALSE(probe.status.ok()) << "prefix of " << length << " bytes";
    EXPECT_LE(probe.largest_allocation, AllocationBound(image));
    slowest = std::max(slowest, probe.seconds);
  }
  for (size_t offset = 0; offset + 4 <= image.size(); ++offset) {
    const std::string forged = Forge(image, offset);
    const Probe probe = RestoreHub(revived, forged);
    EXPECT_LE(probe.largest_allocation, AllocationBound(image))
        << "offset " << offset << ": " << probe.status.ToString();
    slowest = std::max(slowest, probe.seconds);
  }
  EXPECT_LT(slowest, kMaxReadSeconds);
}

}  // namespace
}  // namespace hod::stream
