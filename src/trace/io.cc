#include "trace/io.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "trace/wire.h"

namespace tetris::trace {

namespace {

constexpr char kMagic[8] = {'T', 'T', 'R', 'C', 'L', 'O', 'G', '\0'};
constexpr std::uint64_t kVersion = 1;

}  // namespace

std::vector<std::uint8_t> serialize_log(const TraceLog& log) {
  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof(kMagic));
  wire::put_varint(out, kVersion);
  wire::put_varint(out, log.seed);
  wire::put_varint(out, log.dropped);
  wire::put_varint(out, log.scheduler.size());
  out.insert(out.end(), log.scheduler.begin(), log.scheduler.end());
  wire::put_varint(out, log.events.size());
  for (const Event& ev : log.events) wire::encode_event(out, ev);
  return out;
}

TraceLog deserialize_log(const std::uint8_t* data, std::size_t size) {
  if (size < sizeof(kMagic) ||
      std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("trace log: bad magic");
  }
  wire::Reader reader(data + sizeof(kMagic), size - sizeof(kMagic));
  const std::uint64_t version = reader.get_varint();
  if (!reader.ok || version != kVersion) {
    throw std::runtime_error("trace log: unsupported version");
  }
  TraceLog log;
  log.seed = reader.get_varint();
  log.dropped = reader.get_varint();
  const std::uint64_t name_len = reader.get_varint();
  if (!reader.ok ||
      name_len > static_cast<std::uint64_t>(reader.end - reader.pos)) {
    throw std::runtime_error("trace log: truncated header");
  }
  log.scheduler.assign(reinterpret_cast<const char*>(reader.pos),
                       static_cast<std::size_t>(name_len));
  reader.pos += name_len;
  const std::uint64_t count = reader.get_varint();
  if (!reader.ok) throw std::runtime_error("trace log: truncated header");
  // Checked before the reserve: a corrupt count must not allocate.
  if (count > static_cast<std::uint64_t>(reader.end - reader.pos) /
                  wire::kMinEventSize) {
    throw std::runtime_error("trace log: event count exceeds the log");
  }
  log.events.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Event ev;
    if (!wire::decode_event(reader, &ev)) {
      throw std::runtime_error("trace log: corrupt event stream");
    }
    log.events.push_back(ev);
  }
  return log;
}

void write_log_file(const std::string& path, const TraceLog& log) {
  const std::vector<std::uint8_t> bytes = serialize_log(log);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("trace log: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("trace log: write failed " + path);
}

TraceLog read_log_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace log: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return deserialize_log(bytes.data(), bytes.size());
}

}  // namespace tetris::trace
