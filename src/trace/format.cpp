// tmu-axi-trace-v1 binary encode/decode. Layout (all little-endian):
//
//   offset  size  field
//   0       16    magic "tmu-axi-trace-v1" (no NUL)
//   16      4     u32 version (= 1)
//   20      8     u64 topology hash (SocDesc::hash() of the capture run)
//   28      8     u64 dropped (records lost to the capture bound)
//   36      8     u64 record count (kTraceUnfinalized until close)
//   44      4     u32 link-name length
//   48      n     link name bytes
//   48+n    32*k  records
//
// Record (32 bytes): u32 cycle_delta | u8 channel | u8 flags
// (bit0 last, bit1 retract) | u8 len | u8 size | u32 id | u8 burst |
// u8 resp | u8 strb | u8 pad(0) | u64 addr | u64 data. Cycle stamps are
// deltas against the previous record (first record: against 0), so a
// mostly-quiet multi-million-cycle capture still costs 32 bytes per
// event, not per cycle.

#include "trace/format.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>

#include "sim/bytes.hpp"

namespace trace {

namespace {

using sim::append_le;
using sim::get_le;

constexpr std::size_t kCountOffset = kTraceMagicBytes + 4 + 8;  // dropped
constexpr std::size_t kFlushBlockBytes = 64 * 1024;
constexpr std::uint8_t kFlagLast = 0x1;
constexpr std::uint8_t kFlagRetract = 0x2;

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("tmu-axi-trace: " + what);
}

/// Zeroes every field the record's channel does not carry, so encoded
/// streams are canonical (buffers compare byte-for-byte) and a reader
/// can reject smuggled garbage.
TraceRecord canonical(const TraceRecord& r) {
  TraceRecord c;
  c.cycle = r.cycle;
  c.ch = r.ch;
  c.retract = r.retract;
  if (r.retract) return c;  // a retract is a timestamp, nothing more
  switch (r.ch) {
    case Channel::kAw:
    case Channel::kAr:
      c.id = r.id;
      c.addr = r.addr;
      c.len = r.len;
      c.size = r.size;
      c.burst = r.burst;
      break;
    case Channel::kW:
      c.data = r.data;
      c.strb = r.strb;
      c.last = r.last;
      break;
    case Channel::kB:
      c.id = r.id;
      c.resp = r.resp;
      break;
    case Channel::kR:
      c.id = r.id;
      c.data = r.data;
      c.resp = r.resp;
      c.last = r.last;
      break;
  }
  return c;
}

void encode_record(std::string& out, const TraceRecord& raw,
                   std::uint64_t& last_cycle, std::uint64_t index) {
  const TraceRecord r = canonical(raw);
  if (r.cycle < last_cycle) {
    throw std::invalid_argument(
        "tmu-axi-trace: record " + std::to_string(index) + " cycle " +
        std::to_string(r.cycle) + " precedes previous cycle " +
        std::to_string(last_cycle) + " (records must be cycle-ordered)");
  }
  const std::uint64_t delta = r.cycle - last_cycle;
  if (delta > 0xFFFFFFFFull) {
    throw std::invalid_argument(
        "tmu-axi-trace: record " + std::to_string(index) + " cycle gap " +
        std::to_string(delta) + " exceeds the 32-bit delta encoding");
  }
  last_cycle = r.cycle;
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(delta));
  out += static_cast<char>(r.ch);
  out += static_cast<char>((r.last ? kFlagLast : 0) |
                           (r.retract ? kFlagRetract : 0));
  out += static_cast<char>(r.len);
  out += static_cast<char>(r.size);
  append_le<std::uint32_t>(out, r.id);
  out += static_cast<char>(r.burst);
  out += static_cast<char>(r.resp);
  out += static_cast<char>(r.strb);
  out += '\0';  // pad
  append_le<std::uint64_t>(out, r.addr);
  append_le<std::uint64_t>(out, r.data);
}

std::string encode_header(const std::string& link, std::uint64_t hash,
                          std::uint64_t dropped, std::uint64_t count) {
  std::string out;
  out.append(kTraceMagic, kTraceMagicBytes);
  append_le<std::uint32_t>(out, kTraceVersion);
  append_le<std::uint64_t>(out, hash);
  append_le<std::uint64_t>(out, dropped);
  append_le<std::uint64_t>(out, count);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(link.size()));
  out += link;
  return out;
}

}  // namespace

// ------------------------------------------------------------------
// Streamed writer
// ------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const std::string& link,
                         std::uint64_t topology_hash) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    ok_ = false;
    return;
  }
  const std::string hdr =
      encode_header(link, topology_hash, /*dropped=*/0, kTraceUnfinalized);
  if (std::fwrite(hdr.data(), 1, hdr.size(), f_) != hdr.size()) ok_ = false;
}

TraceWriter::~TraceWriter() {
  if (f_ != nullptr) close();
}

void TraceWriter::append(const TraceRecord& r) {
  if (!ok_ || f_ == nullptr) return;
  encode_record(block_, r, last_cycle_, count_);
  ++count_;
  if (block_.size() >= kFlushBlockBytes) flush();
}

void TraceWriter::flush() {
  if (block_.empty() || f_ == nullptr) return;
  if (std::fwrite(block_.data(), 1, block_.size(), f_) != block_.size()) {
    ok_ = false;
  }
  block_.clear();
}

bool TraceWriter::close() {
  if (f_ == nullptr) return false;
  flush();
  // Patch dropped + record count (adjacent u64 fields); an unpatched
  // header keeps the kTraceUnfinalized sentinel and reads as corrupt.
  if (ok_) {
    std::string patch;
    append_le<std::uint64_t>(patch, dropped_);
    append_le<std::uint64_t>(patch, count_);
    if (std::fseek(f_, static_cast<long>(kCountOffset), SEEK_SET) != 0 ||
        std::fwrite(patch.data(), 1, patch.size(), f_) != patch.size()) {
      ok_ = false;
    }
  }
  if (std::fclose(f_) != 0) ok_ = false;
  f_ = nullptr;
  return ok_;
}

// ------------------------------------------------------------------
// Whole-buffer encode / strict decode
// ------------------------------------------------------------------

std::string encode_trace(const TraceBuffer& buf) {
  std::string out = encode_header(buf.link, buf.topology_hash, buf.dropped,
                                  buf.records.size());
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < buf.records.size(); ++i) {
    encode_record(out, buf.records[i], last, i);
  }
  return out;
}

TraceBuffer decode_trace(std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (bytes.size() < kTraceHeaderFixedBytes) {
    bad("truncated header: " + std::to_string(bytes.size()) + " bytes, need " +
        std::to_string(kTraceHeaderFixedBytes));
  }
  if (std::memcmp(p, kTraceMagic, kTraceMagicBytes) != 0) {
    bad("bad magic (not a tmu-axi-trace file)");
  }
  const std::uint32_t version = get_le<std::uint32_t>(p + kTraceMagicBytes);
  if (version != kTraceVersion) {
    bad("unsupported version " + std::to_string(version) + " (expected " +
        std::to_string(kTraceVersion) + ")");
  }
  TraceBuffer buf;
  buf.topology_hash = get_le<std::uint64_t>(p + kTraceMagicBytes + 4);
  buf.dropped = get_le<std::uint64_t>(p + kTraceMagicBytes + 12);
  const std::uint64_t count = get_le<std::uint64_t>(p + kCountOffset + 8);
  if (count == kTraceUnfinalized) {
    bad("unfinalized trace (the writer was never closed)");
  }
  const std::uint32_t link_len =
      get_le<std::uint32_t>(p + kTraceHeaderFixedBytes - 4);
  if (link_len > 4096) {
    bad("implausible link-name length " + std::to_string(link_len));
  }
  std::size_t off = kTraceHeaderFixedBytes;
  if (bytes.size() < off + link_len) bad("truncated link name");
  buf.link.assign(bytes.data() + off, link_len);
  off += link_len;

  // Divide rather than multiply: count * kTraceRecordBytes wraps for a
  // hostile count, and the reserve() below must only see a count the
  // file's bytes actually back.
  const std::size_t payload = bytes.size() - off;
  if (payload % kTraceRecordBytes != 0 ||
      count != payload / kTraceRecordBytes) {
    bad("payload size mismatch: header says " + std::to_string(count) +
        " records of " + std::to_string(kTraceRecordBytes) +
        " bytes, file carries " + std::to_string(payload) +
        " (truncated or trailing bytes)");
  }

  buf.records.reserve(count);
  std::uint64_t cycle = 0;
  for (std::uint64_t i = 0; i < count; ++i, off += kTraceRecordBytes) {
    const unsigned char* r = p + off;
    const auto where = [&] { return "record " + std::to_string(i); };
    TraceRecord rec;
    cycle += get_le<std::uint32_t>(r);
    rec.cycle = cycle;
    if (r[4] > static_cast<std::uint8_t>(Channel::kR)) {
      bad(where() + ": unknown channel " + std::to_string(r[4]));
    }
    rec.ch = static_cast<Channel>(r[4]);
    const std::uint8_t flags = r[5];
    if ((flags & ~(kFlagLast | kFlagRetract)) != 0) {
      bad(where() + ": unknown flag bits " + std::to_string(flags));
    }
    rec.last = (flags & kFlagLast) != 0;
    rec.retract = (flags & kFlagRetract) != 0;
    if (rec.retract &&
        (rec.ch == Channel::kB || rec.ch == Channel::kR)) {
      bad(where() + ": retract flag on subordinate-driven channel " +
          std::string(to_string(rec.ch)));
    }
    rec.len = r[6];
    rec.size = r[7];
    rec.id = get_le<std::uint32_t>(r + 8);
    rec.burst = r[12];
    if (rec.burst > static_cast<std::uint8_t>(axi::Burst::kWrap)) {
      bad(where() + ": bad burst encoding " + std::to_string(rec.burst));
    }
    rec.resp = r[13];
    if (rec.resp > static_cast<std::uint8_t>(axi::Resp::kDecErr)) {
      bad(where() + ": bad resp encoding " + std::to_string(rec.resp));
    }
    rec.strb = r[14];
    if (r[15] != 0) bad(where() + ": nonzero pad byte");
    rec.addr = get_le<std::uint64_t>(r + 16);
    rec.data = get_le<std::uint64_t>(r + 24);
    if (rec != canonical(rec)) {
      bad(where() + ": non-canonical " + to_string(rec.ch) +
          " record (fields the channel does not carry are set)");
    }
    buf.records.push_back(rec);
  }
  return buf;
}

bool write_trace_file(const std::string& path, const TraceBuffer& buf) {
  TraceWriter w(path, buf.link, buf.topology_hash);
  for (const TraceRecord& r : buf.records) w.append(r);
  w.set_dropped(buf.dropped);
  return w.close();
}

TraceBuffer read_trace_file(const std::string& path) {
  const std::optional<std::string> bytes = sim::read_whole_file(path);
  if (!bytes) bad("cannot read '" + path + "'");
  try {
    return decode_trace(*bytes);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace trace
