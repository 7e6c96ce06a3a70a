#include "hierarchy/serialization.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace hod::hierarchy {

namespace {

constexpr char kMagic[] = "HODPROD";
constexpr int kVersion = 1;

std::string D(double value) {
  // %.17g round-trips IEEE-754 doubles exactly.
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void WriteFeatureVector(const char* tag, const ts::FeatureVector& vector,
                        std::ostream& os) {
  os << tag << " " << vector.size();
  for (size_t i = 0; i < vector.size(); ++i) {
    os << " " << vector.names()[i] << " " << D(vector.values()[i]);
  }
  os << "\n";
}

void WriteSeries(const char* tag, const std::string& id,
                 const ts::TimeSeries& series, std::ostream& os) {
  os << tag << " " << id << " " << D(series.start_time()) << " "
     << D(series.interval()) << " " << series.size();
  for (double v : series.values()) os << " " << D(v);
  os << "\n";
}

/// Tokenizing reader with line-number-annotated errors.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Reads the next non-empty line into the internal tokenizer; returns
  /// false at EOF.
  bool NextLine() {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_number_;
      if (!line.empty()) {
        tokens_ = std::istringstream(line);
        return true;
      }
    }
    return false;
  }

  /// Extracts the next whitespace token from the current line.
  StatusOr<std::string> Token() {
    std::string token;
    if (!(tokens_ >> token)) return Error("missing token");
    return token;
  }

  StatusOr<double> Double() {
    double value = 0.0;
    if (!(tokens_ >> value)) return Error("missing numeric field");
    return value;
  }

  StatusOr<size_t> Count() {
    long long value = 0;
    if (!(tokens_ >> value) || value < 0) return Error("missing count");
    return static_cast<size_t>(value);
  }

  /// Remainder of the current line (trimmed of one leading space).
  std::string Rest() {
    std::string rest;
    std::getline(tokens_, rest);
    if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
    return rest;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("line " + std::to_string(line_number_) +
                                   ": " + message);
  }

 private:
  std::istream& is_;
  std::istringstream tokens_;
  size_t line_number_ = 0;
};

StatusOr<ts::FeatureVector> ReadFeatureVector(LineReader& reader) {
  HOD_ASSIGN_OR_RETURN(size_t count, reader.Count());
  std::vector<std::string> names;
  std::vector<double> values;
  for (size_t i = 0; i < count; ++i) {
    HOD_ASSIGN_OR_RETURN(std::string name, reader.Token());
    HOD_ASSIGN_OR_RETURN(double value, reader.Double());
    names.push_back(std::move(name));
    values.push_back(value);
  }
  return ts::FeatureVector(std::move(names), std::move(values));
}

}  // namespace

Status WriteProduction(const Production& production, std::ostream& os) {
  HOD_RETURN_IF_ERROR(ValidateProduction(production));
  os << kMagic << " " << kVersion << "\n";
  for (const std::string& id : production.sensors.ids()) {
    const SensorInfo info = production.sensors.Get(id).value();
    os << "SENSOR " << info.id << " "
       << (info.unit.empty() ? "-" : info.unit) << " "
       << (info.machine_id.empty() ? "-" : info.machine_id) << " "
       << (info.redundancy_group.empty() ? "-" : info.redundancy_group)
       << " " << info.name << "\n";
  }
  for (const ProductionLine& line : production.lines) {
    os << "LINE " << line.id << "\n";
    for (const Machine& machine : line.machines) {
      os << "MACHINE " << machine.id << "\n";
      WriteFeatureVector("CONFIG", machine.configuration, os);
      for (const Job& job : machine.jobs) {
        os << "JOB " << job.id << " " << D(job.start_time) << " "
           << D(job.end_time) << "\n";
        WriteFeatureVector("SETUP", job.setup, os);
        WriteFeatureVector("CAQ", job.caq, os);
        for (const Phase& phase : job.phases) {
          os << "PHASE " << phase.name << " " << D(phase.start_time) << " "
             << D(phase.end_time) << "\n";
          os << "EVENTS " << phase.events.alphabet_size() << " "
             << phase.events.size();
          for (size_t i = 0; i < phase.events.size(); ++i) {
            os << " " << phase.events[i];
          }
          os << "\n";
          for (const auto& [sensor_id, series] : phase.sensor_series) {
            WriteSeries("SERIES", sensor_id, series, os);
          }
        }
      }
    }
    for (const EnvironmentChannel& channel : line.environment) {
      WriteSeries("ENV", channel.sensor_id, channel.series, os);
    }
  }
  os << "END\n";
  return os.good() ? Status::Ok()
                   : Status::Internal("stream write failure");
}

StatusOr<Production> ReadProduction(std::istream& is) {
  LineReader reader(is);
  if (!reader.NextLine()) {
    return Status::InvalidArgument("empty production stream");
  }
  {
    HOD_ASSIGN_OR_RETURN(std::string magic, reader.Token());
    if (magic != kMagic) return reader.Error("bad magic, expected HODPROD");
    HOD_ASSIGN_OR_RETURN(double version, reader.Double());
    if (static_cast<int>(version) != kVersion) {
      return reader.Error("unsupported version");
    }
  }

  Production production;
  ProductionLine* line = nullptr;
  Machine* machine = nullptr;
  Job* job = nullptr;
  Phase* phase = nullptr;
  bool ended = false;

  while (!ended && reader.NextLine()) {
    HOD_ASSIGN_OR_RETURN(std::string tag, reader.Token());
    if (tag == "SENSOR") {
      SensorInfo info;
      HOD_ASSIGN_OR_RETURN(info.id, reader.Token());
      HOD_ASSIGN_OR_RETURN(info.unit, reader.Token());
      HOD_ASSIGN_OR_RETURN(info.machine_id, reader.Token());
      HOD_ASSIGN_OR_RETURN(info.redundancy_group, reader.Token());
      info.name = reader.Rest();
      if (info.unit == "-") info.unit.clear();
      if (info.machine_id == "-") info.machine_id.clear();
      if (info.redundancy_group == "-") info.redundancy_group.clear();
      HOD_RETURN_IF_ERROR(production.sensors.Register(std::move(info)));
    } else if (tag == "LINE") {
      ProductionLine new_line;
      HOD_ASSIGN_OR_RETURN(new_line.id, reader.Token());
      production.lines.push_back(std::move(new_line));
      line = &production.lines.back();
      machine = nullptr;
      job = nullptr;
      phase = nullptr;
    } else if (tag == "MACHINE") {
      if (line == nullptr) return reader.Error("MACHINE outside LINE");
      Machine new_machine;
      HOD_ASSIGN_OR_RETURN(new_machine.id, reader.Token());
      line->machines.push_back(std::move(new_machine));
      machine = &line->machines.back();
      job = nullptr;
      phase = nullptr;
    } else if (tag == "CONFIG") {
      if (machine == nullptr) return reader.Error("CONFIG outside MACHINE");
      HOD_ASSIGN_OR_RETURN(machine->configuration,
                           ReadFeatureVector(reader));
    } else if (tag == "JOB") {
      if (machine == nullptr) return reader.Error("JOB outside MACHINE");
      Job new_job;
      HOD_ASSIGN_OR_RETURN(new_job.id, reader.Token());
      HOD_ASSIGN_OR_RETURN(new_job.start_time, reader.Double());
      HOD_ASSIGN_OR_RETURN(new_job.end_time, reader.Double());
      new_job.machine_id = machine->id;
      machine->jobs.push_back(std::move(new_job));
      job = &machine->jobs.back();
      phase = nullptr;
    } else if (tag == "SETUP") {
      if (job == nullptr) return reader.Error("SETUP outside JOB");
      HOD_ASSIGN_OR_RETURN(job->setup, ReadFeatureVector(reader));
    } else if (tag == "CAQ") {
      if (job == nullptr) return reader.Error("CAQ outside JOB");
      HOD_ASSIGN_OR_RETURN(job->caq, ReadFeatureVector(reader));
    } else if (tag == "PHASE") {
      if (job == nullptr) return reader.Error("PHASE outside JOB");
      Phase new_phase;
      HOD_ASSIGN_OR_RETURN(new_phase.name, reader.Token());
      HOD_ASSIGN_OR_RETURN(new_phase.start_time, reader.Double());
      HOD_ASSIGN_OR_RETURN(new_phase.end_time, reader.Double());
      job->phases.push_back(std::move(new_phase));
      phase = &job->phases.back();
    } else if (tag == "EVENTS") {
      if (phase == nullptr) return reader.Error("EVENTS outside PHASE");
      HOD_ASSIGN_OR_RETURN(size_t alphabet, reader.Count());
      HOD_ASSIGN_OR_RETURN(size_t count, reader.Count());
      ts::DiscreteSequence events(phase->name + ".events",
                                  static_cast<int>(alphabet));
      for (size_t i = 0; i < count; ++i) {
        HOD_ASSIGN_OR_RETURN(double symbol, reader.Double());
        events.Append(static_cast<ts::Symbol>(symbol));
      }
      phase->events = std::move(events);
    } else if (tag == "SERIES" || tag == "ENV") {
      HOD_ASSIGN_OR_RETURN(std::string sensor_id, reader.Token());
      HOD_ASSIGN_OR_RETURN(double start, reader.Double());
      HOD_ASSIGN_OR_RETURN(double interval, reader.Double());
      HOD_ASSIGN_OR_RETURN(size_t count, reader.Count());
      ts::TimeSeries series(sensor_id, start, interval);
      for (size_t i = 0; i < count; ++i) {
        HOD_ASSIGN_OR_RETURN(double value, reader.Double());
        series.Append(value);
      }
      if (tag == "SERIES") {
        if (phase == nullptr) return reader.Error("SERIES outside PHASE");
        phase->sensor_series.emplace(sensor_id, std::move(series));
      } else {
        if (line == nullptr) return reader.Error("ENV outside LINE");
        EnvironmentChannel channel;
        channel.sensor_id = sensor_id;
        channel.series = std::move(series);
        line->environment.push_back(std::move(channel));
      }
    } else if (tag == "END") {
      ended = true;
    } else {
      return reader.Error("unknown tag '" + tag + "'");
    }
  }
  if (!ended) return Status::InvalidArgument("missing END record");
  HOD_RETURN_IF_ERROR(ValidateProduction(production));
  return production;
}

namespace bin {

namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

template <typename T>
void AppendLE(std::string& buffer, T value) {
  static_assert(std::is_unsigned_v<T>);
  char bytes[sizeof(T)];
  if constexpr (kLittleEndian) {
    std::memcpy(bytes, &value, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
  }
  buffer.append(bytes, sizeof(T));
}

template <typename T>
T LoadLE(const char* bytes) {
  static_assert(std::is_unsigned_v<T>);
  T value = 0;
  if constexpr (kLittleEndian) {
    std::memcpy(&value, bytes, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      value |= static_cast<T>(static_cast<unsigned char>(bytes[i])) << (8 * i);
    }
  }
  return value;
}

/// u32 count, then every 8-byte value: one block copy on a little-endian
/// host, one loop without per-element checks elsewhere.
template <typename T>
void AppendVector(std::string& buffer, const std::vector<T>& values) {
  static_assert(sizeof(T) == sizeof(uint64_t));
  AppendLE(buffer, static_cast<uint32_t>(values.size()));
  if (values.empty()) return;
  if constexpr (kLittleEndian) {
    buffer.append(reinterpret_cast<const char*>(values.data()),
                  values.size() * sizeof(T));
  } else {
    for (T value : values) AppendLE(buffer, std::bit_cast<uint64_t>(value));
  }
}

template <typename T>
void LoadVector(const char* bytes, size_t count, std::vector<T>& values) {
  static_assert(sizeof(T) == sizeof(uint64_t));
  values.resize(count);
  if (count == 0) return;
  if constexpr (kLittleEndian) {
    std::memcpy(values.data(), bytes, count * sizeof(T));
  } else {
    for (size_t i = 0; i < count; ++i) {
      values[i] = std::bit_cast<T>(LoadLE<uint64_t>(bytes + i * sizeof(T)));
    }
  }
}

Status Truncated() { return Status::OutOfRange("truncated binary stream"); }

}  // namespace

void ByteWriter::WriteU32(uint32_t value) { AppendLE(buffer_, value); }

void ByteWriter::WriteU64(uint64_t value) { AppendLE(buffer_, value); }

void ByteWriter::WriteF64(double value) {
  AppendLE(buffer_, std::bit_cast<uint64_t>(value));
}

void ByteWriter::WriteString(std::string_view value) {
  WriteU32(static_cast<uint32_t>(value.size()));
  buffer_.append(value.data(), value.size());
}

void ByteWriter::WriteF64Vector(const std::vector<double>& values) {
  AppendVector(buffer_, values);
}

void ByteWriter::WriteU64Vector(const std::vector<uint64_t>& values) {
  AppendVector(buffer_, values);
}

const char* ByteReader::Take(size_t n) {
  if (n > remaining()) return nullptr;
  const char* at = bytes_.data() + pos_;
  pos_ += n;
  return at;
}

StatusOr<uint8_t> ByteReader::ReadU8() {
  const char* at = Take(1);
  if (at == nullptr) return Truncated();
  return static_cast<uint8_t>(*at);
}

StatusOr<uint32_t> ByteReader::ReadU32() {
  const char* at = Take(4);
  if (at == nullptr) return Truncated();
  return LoadLE<uint32_t>(at);
}

StatusOr<uint64_t> ByteReader::ReadU64() {
  const char* at = Take(8);
  if (at == nullptr) return Truncated();
  return LoadLE<uint64_t>(at);
}

StatusOr<double> ByteReader::ReadF64() {
  const char* at = Take(8);
  if (at == nullptr) return Truncated();
  return std::bit_cast<double>(LoadLE<uint64_t>(at));
}

StatusOr<bool> ByteReader::ReadBool() {
  HOD_ASSIGN_OR_RETURN(uint8_t value, ReadU8());
  if (value > 1) return Status::InvalidArgument("bad bool byte");
  return value == 1;
}

StatusOr<std::string> ByteReader::ReadString(size_t max_length) {
  HOD_ASSIGN_OR_RETURN(uint32_t length, ReadU32());
  if (length > max_length) {
    return Status::OutOfRange("binary string length exceeds limit");
  }
  const char* at = Take(length);
  if (at == nullptr) return Truncated();
  return std::string(at, length);
}

Status ByteReader::ReadF64Vector(std::vector<double>& values) {
  HOD_ASSIGN_OR_RETURN(uint32_t count, ReadU32());
  HOD_RETURN_IF_ERROR(CheckCount(count, sizeof(double), "vector length"));
  LoadVector(Take(count * sizeof(double)), count, values);
  return Status::Ok();
}

Status ByteReader::ReadU64Vector(std::vector<uint64_t>& values) {
  HOD_ASSIGN_OR_RETURN(uint32_t count, ReadU32());
  HOD_RETURN_IF_ERROR(CheckCount(count, sizeof(uint64_t), "vector length"));
  LoadVector(Take(count * sizeof(uint64_t)), count, values);
  return Status::Ok();
}

Status ByteReader::CheckCount(uint64_t count, size_t min_record_bytes,
                              const char* what) const {
  if (count > remaining() / std::max<size_t>(min_record_bytes, 1)) {
    return Status::InvalidArgument(std::string("implausible ") + what);
  }
  return Status::Ok();
}

std::string ReadToEnd(std::istream& is) {
  std::string bytes;
  // Size seekable streams up front so the common case is one read.
  const std::istream::pos_type start = is.tellg();
  if (start != std::istream::pos_type(-1) && is.seekg(0, std::ios::end)) {
    const std::istream::pos_type end = is.tellg();
    is.seekg(start);
    if (end != std::istream::pos_type(-1) && end > start) {
      bytes.resize(static_cast<size_t>(end - start));
      is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      bytes.resize(static_cast<size_t>(is.gcount()));
    }
  }
  is.clear(is.rdstate() & ~std::ios::failbit);
  char chunk[1 << 14];
  while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0) {
    bytes.append(chunk, static_cast<size_t>(is.gcount()));
  }
  return bytes;
}

}  // namespace bin

}  // namespace hod::hierarchy
