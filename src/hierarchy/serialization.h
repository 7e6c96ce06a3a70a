#ifndef HOD_HIERARCHY_SERIALIZATION_H_
#define HOD_HIERARCHY_SERIALIZATION_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hierarchy/production.h"
#include "util/statusor.h"

namespace hod::hierarchy {

/// Text serialization of a whole Production — the interchange point
/// between a plant historian and this library. The format is line
/// oriented, versioned, and lossless for doubles (round-trips bit-exact):
///
///   HODPROD 1
///   SENSOR <id> <unit> <machine|-> <group|-> <name...>
///   LINE <id>
///   MACHINE <id>
///   CONFIG <n> <name> <value> ...
///   JOB <id> <start> <end>
///   SETUP <n> <name> <value> ...
///   CAQ <n> <name> <value> ...
///   PHASE <name> <start> <end>
///   EVENTS <alphabet> <n> <s1> ... <sn>
///   SERIES <sensor-id> <start> <interval> <n> <v1> ... <vn>
///   ENV <sensor-id> <start> <interval> <n> <v1> ... <vn>
///   END
///
/// Identifiers must not contain whitespace; the trailing free-text field
/// of SENSOR may.
Status WriteProduction(const Production& production, std::ostream& os);

/// Parses a production written by WriteProduction. Errors carry the
/// offending line number.
StatusOr<Production> ReadProduction(std::istream& is);

/// Fixed-width little-endian binary codec — the building blocks of
/// versioned binary images (engine checkpoints, hub state, served
/// snapshots). Byte order is pinned so an image written on one host
/// restores on any other; doubles travel as their IEEE-754 bit pattern
/// (round-trips bit-exact). An image is built in one growable buffer and
/// parsed from one contiguous span, so a file or stream costs one I/O
/// call per image instead of one per field.
namespace bin {

/// Appends fields to one growable byte buffer.
class ByteWriter {
 public:
  /// Pre-sizes the buffer, e.g. from the previous image's size.
  void Reserve(size_t bytes) { buffer_.reserve(bytes); }

  void WriteU8(uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteF64(double value);
  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }
  /// u32 length followed by the raw bytes.
  void WriteString(std::string_view value);
  /// u32 count followed by the values.
  void WriteF64Vector(const std::vector<double>& values);
  void WriteU64Vector(const std::vector<uint64_t>& values);

  size_t size() const { return buffer_.size(); }
  const std::string& bytes() const { return buffer_; }
  /// Hands the buffer over; the writer is left empty.
  std::string Release() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Parses fields from one contiguous span. Every read is bounds-checked:
/// reading past the end returns OutOfRange ("truncated binary stream")
/// and leaves the cursor where it was. The reader does not own the bytes.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  /// Bytes not yet consumed.
  size_t remaining() const { return bytes_.size() - pos_; }

  StatusOr<uint8_t> ReadU8();
  StatusOr<uint32_t> ReadU32();
  StatusOr<uint64_t> ReadU64();
  StatusOr<double> ReadF64();
  /// One byte that must be 0 or 1 (InvalidArgument otherwise).
  StatusOr<bool> ReadBool();
  /// `max_length` caps what a corrupt length prefix may claim.
  StatusOr<std::string> ReadString(size_t max_length = 1 << 20);
  /// Replaces `values` with a u32-counted vector. The count is checked
  /// against remaining() before anything is allocated.
  Status ReadF64Vector(std::vector<double>& values);
  Status ReadU64Vector(std::vector<uint64_t>& values);

  /// Refuses a record count read from the image that the bytes left
  /// cannot hold, given each record takes at least `min_record_bytes`:
  /// InvalidArgument, before the caller reserves or resizes for it.
  Status CheckCount(uint64_t count, size_t min_record_bytes,
                    const char* what) const;

 private:
  /// Advances past `n` bytes and returns where they start, or nullptr
  /// (cursor unmoved) when fewer than `n` remain.
  const char* Take(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Reads `is` to its end: the stream adapters of the binary images parse
/// the returned bytes as one span.
std::string ReadToEnd(std::istream& is);

}  // namespace bin

}  // namespace hod::hierarchy

#endif  // HOD_HIERARCHY_SERIALIZATION_H_
