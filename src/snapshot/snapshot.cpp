#include "snapshot/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <optional>

#include "sim/bytes.hpp"
#include "sim/state.hpp"

namespace snapshot {

namespace {

[[noreturn]] void bail(const std::string& msg) {
  throw SnapshotError("tmu-soc-snapshot: " + msg);
}

/// The image checksum: FNV-1a 64 over everything before it.
std::uint64_t checksum(const unsigned char* p, std::size_t n) {
  return sim::fnv1a64({reinterpret_cast<const char*>(p), n});
}

/// Saving codec: the netlist walk appends to the visitor's own buffer.
class SaveVisitor final : public sim::StateVisitor {
 public:
  [[noreturn]] void fail(const std::string& msg) override { bail(msg); }
};

/// Loading codec over a payload; any underrun or contract violation
/// throws with the current payload offset, so a drifted walk names where
/// it died.
class LoadVisitor final : public sim::StateVisitor {
 public:
  LoadVisitor(const unsigned char* data, std::size_t size)
      : StateVisitor(data, size) {}

  [[noreturn]] void fail(const std::string& msg) override {
    bail(msg + " (at payload offset " + std::to_string(offset()) + ")");
  }
};

}  // namespace

Snapshot capture(soc::Soc& soc) {
  soc.sim().settle();
  SaveVisitor v;
  soc.visit_state(v);
  Snapshot snap;
  snap.desc = std::make_shared<const soc::SocDesc>(soc.desc());
  snap.topology_hash = snap.desc->hash();
  snap.cycle = soc.sim().cycle();
  snap.payload = v.take();
  return snap;
}

void restore(const Snapshot& snap, soc::Soc& soc) {
  // Equal descs have equal canonical JSON, hence equal hashes, so a
  // captured snapshot skips re-serializing the target's desc; decoded
  // snapshots and any structural difference take the hash check.
  if (snap.desc == nullptr || !(*snap.desc == soc.desc())) {
    const std::uint64_t have = soc.desc().hash();
    if (snap.topology_hash != have) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "topology hash mismatch: snapshot was captured from "
                    "%016llx, netlist '%s' hashes %016llx",
                    static_cast<unsigned long long>(snap.topology_hash),
                    soc.desc().name.c_str(),
                    static_cast<unsigned long long>(have));
      bail(buf);
    }
  }
  LoadVisitor v(snap.payload.data(), snap.payload.size());
  soc.visit_state(v);
  if (v.offset() != snap.payload.size()) {
    bail("payload has " + std::to_string(snap.payload.size() - v.offset()) +
         " trailing bytes after the netlist walk");
  }
  if (soc.sim().cycle() != snap.cycle) {
    bail("header cycle " + std::to_string(snap.cycle) +
         " disagrees with the payload's cycle " +
         std::to_string(soc.sim().cycle()));
  }
}

std::unique_ptr<soc::Soc> fork(const Snapshot& snap,
                               const soc::SocDesc& desc) {
  std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(desc);
  restore(snap, *soc);
  return soc;
}

std::vector<unsigned char> encode(const Snapshot& snap) {
  std::vector<unsigned char> out;
  out.reserve(kHeaderBytes + snap.payload.size() + kChecksumBytes);
  out.resize(kMagicBytes);
  std::memcpy(out.data(), kMagic, kMagicBytes);
  sim::append_le<std::uint32_t>(out, kVersion);
  sim::append_le<std::uint64_t>(out, snap.topology_hash);
  sim::append_le<std::uint64_t>(out, snap.cycle);
  sim::append_le<std::uint64_t>(out, snap.payload.size());
  out.insert(out.end(), snap.payload.begin(), snap.payload.end());
  sim::append_le<std::uint64_t>(out, checksum(out.data(), out.size()));
  return out;
}

Snapshot decode(const unsigned char* data, std::size_t n) {
  if (n < kHeaderBytes + kChecksumBytes) {
    bail("file is " + std::to_string(n) + " bytes; even an empty snapshot is " +
         std::to_string(kHeaderBytes + kChecksumBytes));
  }
  if (std::memcmp(data, kMagic, kMagicBytes) != 0) {
    bail("bad magic (not a tmu-soc-snapshot file)");
  }
  const std::uint32_t version = sim::get_le<std::uint32_t>(data + kMagicBytes);
  if (version != kVersion) {
    bail("unsupported version " + std::to_string(version) + " (reader knows " +
         std::to_string(kVersion) + ")");
  }
  Snapshot snap;
  snap.topology_hash = sim::get_le<std::uint64_t>(data + kMagicBytes + 4);
  snap.cycle = sim::get_le<std::uint64_t>(data + kMagicBytes + 12);
  const std::uint64_t count =
      sim::get_le<std::uint64_t>(data + kMagicBytes + 20);
  const std::uint64_t body = n - kHeaderBytes - kChecksumBytes;
  if (count != body) {
    bail("payload count " + std::to_string(count) + " disagrees with the " +
         std::to_string(body) + " payload bytes in the file (truncated or "
         "trailing bytes)");
  }
  const std::uint64_t want =
      sim::get_le<std::uint64_t>(data + n - kChecksumBytes);
  const std::uint64_t got = checksum(data, n - kChecksumBytes);
  if (want != got) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "checksum mismatch: file says %016llx, content hashes "
                  "%016llx",
                  static_cast<unsigned long long>(want),
                  static_cast<unsigned long long>(got));
    bail(buf);
  }
  snap.payload.assign(data + kHeaderBytes, data + kHeaderBytes + body);
  return snap;
}

void write_file(const Snapshot& snap, const std::string& path) {
  const std::vector<unsigned char> image = encode(snap);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) bail("cannot open '" + path + "' for writing");
  const bool ok =
      std::fwrite(image.data(), 1, image.size(), f) == image.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) bail("write to '" + path + "' failed");
}

Snapshot read_file(const std::string& path) {
  const std::optional<std::string> image = sim::read_whole_file(path);
  if (!image) bail("cannot read '" + path + "'");
  return decode(reinterpret_cast<const unsigned char*>(image->data()),
                image->size());
}

}  // namespace snapshot
