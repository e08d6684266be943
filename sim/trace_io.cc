#include "sim/trace_io.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include <unistd.h>

#include "common/fnv1a.h"

namespace clic {
namespace {

constexpr std::uint32_t kMagic = 0x434C5452;  // "CLTR"
constexpr std::uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteRaw(std::FILE* f, Fnv1a& sum, const void* data, std::size_t n) {
  sum.Mix(data, n);
  return std::fwrite(data, 1, n, f) == n;
}

bool ReadRaw(std::FILE* f, Fnv1a& sum, void* data, std::size_t n) {
  if (std::fread(data, 1, n, f) != n) return false;
  sum.Mix(data, n);
  return true;
}

template <typename T>
bool WriteScalar(std::FILE* f, Fnv1a& sum, T value) {
  return WriteRaw(f, sum, &value, sizeof(value));
}

template <typename T>
bool ReadScalar(std::FILE* f, Fnv1a& sum, T* value) {
  return ReadRaw(f, sum, value, sizeof(*value));
}

// The one request-record codec both directions share. On disk a record
// is page(4) hint_set(4) client(2) op(1) write_kind(1), native byte
// order, no padding, so a chunk's bytes (and its checksum contribution)
// are exactly those of its records written one field at a time.
constexpr std::size_t kRecordBytes = 12;
static_assert(sizeof(PageId) == 4 && sizeof(HintSetId) == 4 &&
                  sizeof(ClientId) == 2,
              "the .trc record layout is fixed");

void EncodeRecord(const Request& r, unsigned char* p) {
  std::memcpy(p, &r.page, 4);
  std::memcpy(p + 4, &r.hint_set, 4);
  std::memcpy(p + 8, &r.client, 2);
  p[10] = static_cast<std::uint8_t>(r.op);
  p[11] = static_cast<std::uint8_t>(r.write_kind);
}

/// Decodes and validates one record: false on an op or write kind
/// outside the enums, or a hint id that does not index the registry (so
/// a trace with requests but no interned hints is malformed).
bool DecodeRecord(const unsigned char* p, std::uint64_t num_hints,
                  Request* r) {
  std::memcpy(&r->page, p, 4);
  std::memcpy(&r->hint_set, p + 4, 4);
  std::memcpy(&r->client, p + 8, 2);
  if (p[10] > 1 || p[11] > 2 || r->hint_set >= num_hints) return false;
  r->op = static_cast<OpType>(p[10]);
  r->write_kind = static_cast<WriteKind>(p[11]);
  return true;
}

/// One chunk's worth of record bytes, or less for a shorter trace.
std::vector<unsigned char> ChunkBuffer(std::uint64_t num_requests) {
  const std::uint64_t records =
      std::min<std::uint64_t>(num_requests, kTraceChunkRecords);
  return std::vector<unsigned char>(
      static_cast<std::size_t>(records) * kRecordBytes);
}

}  // namespace

bool SaveTrace(const Trace& trace, const std::string& path) {
  // Unique temp name per (process, call): concurrent savers of the same
  // trace never interleave writes into one file, and the final path only
  // ever appears via the atomic rename() below — readers see a complete
  // checksummed file or nothing.
  static std::atomic<std::uint64_t> save_counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(save_counter.fetch_add(1, std::memory_order_relaxed));
  FilePtr file(std::fopen(tmp.c_str(), "wb"));
  if (!file) return false;
  std::FILE* f = file.get();
  Fnv1a sum;

  bool ok = WriteScalar(f, sum, kMagic) && WriteScalar(f, sum, kVersion);
  const std::uint32_t name_len =
      static_cast<std::uint32_t>(trace.name.size());
  ok = ok && WriteScalar(f, sum, name_len) &&
       WriteRaw(f, sum, trace.name.data(), name_len);

  const std::uint64_t num_hints = trace.hints->size();
  ok = ok && WriteScalar(f, sum, num_hints);
  for (std::uint64_t i = 0; ok && i < num_hints; ++i) {
    const HintVector& v = trace.hints->Get(static_cast<HintSetId>(i));
    const std::uint32_t nattrs = static_cast<std::uint32_t>(v.attrs.size());
    ok = WriteScalar(f, sum, v.client) && WriteScalar(f, sum, nattrs) &&
         (nattrs == 0 ||
          WriteRaw(f, sum, v.attrs.data(), nattrs * sizeof(std::uint32_t)));
  }

  const std::uint64_t num_requests = trace.requests.size();
  ok = ok && WriteScalar(f, sum, num_requests);
  std::vector<unsigned char> chunk = ChunkBuffer(num_requests);
  for (std::uint64_t i = 0; ok && i < num_requests;) {
    const std::uint64_t n =
        std::min<std::uint64_t>(kTraceChunkRecords, num_requests - i);
    for (std::uint64_t j = 0; j < n; ++j) {
      EncodeRecord(trace.requests[i + j], chunk.data() + j * kRecordBytes);
    }
    ok = WriteRaw(f, sum, chunk.data(), n * kRecordBytes);
    i += n;
  }

  if (ok) {
    const std::uint64_t checksum = sum.value();
    ok = std::fwrite(&checksum, 1, sizeof(checksum), f) == sizeof(checksum);
  }
  file.reset();  // flush + close before rename
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<Trace> LoadTrace(const std::string& path,
                               const std::string& expected_name) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (!file) return std::nullopt;
  std::FILE* f = file.get();
  // File size bounds every element count below, so a corrupted count
  // can never trigger a huge allocation before the checksum check.
  if (std::fseek(f, 0, SEEK_END) != 0) return std::nullopt;
  const long file_size = std::ftell(f);
  if (file_size < 0 || std::fseek(f, 0, SEEK_SET) != 0) return std::nullopt;
  Fnv1a sum;

  std::uint32_t magic = 0, version = 0, name_len = 0;
  if (!ReadScalar(f, sum, &magic) || magic != kMagic) return std::nullopt;
  if (!ReadScalar(f, sum, &version) || version != kVersion) {
    return std::nullopt;
  }
  if (!ReadScalar(f, sum, &name_len) || name_len > 4096) return std::nullopt;
  std::string name(name_len, '\0');
  if (name_len > 0 && !ReadRaw(f, sum, name.data(), name_len)) {
    return std::nullopt;
  }
  if (name != expected_name) return std::nullopt;

  Trace trace;
  trace.name = name;
  std::uint64_t num_hints = 0;
  if (!ReadScalar(f, sum, &num_hints) ||
      num_hints > static_cast<std::uint64_t>(file_size) / 6) {
    return std::nullopt;  // each hint entry is at least 6 bytes
  }
  for (std::uint64_t i = 0; i < num_hints; ++i) {
    HintVector v;
    std::uint32_t nattrs = 0;
    if (!ReadScalar(f, sum, &v.client) || !ReadScalar(f, sum, &nattrs) ||
        nattrs > 4096) {
      return std::nullopt;
    }
    v.attrs.resize(nattrs);
    if (nattrs > 0 &&
        !ReadRaw(f, sum, v.attrs.data(), nattrs * sizeof(std::uint32_t))) {
      return std::nullopt;
    }
    // Ids must come back dense and in order.
    if (trace.hints->Intern(std::move(v)) != i) return std::nullopt;
  }

  std::uint64_t num_requests = 0;
  if (!ReadScalar(f, sum, &num_requests) ||
      num_requests > static_cast<std::uint64_t>(file_size) / kRecordBytes) {
    return std::nullopt;
  }
  trace.requests.resize(num_requests);
  ClientId max_client = 0;
  // One fread and one checksum pass per chunk; FNV-1a streams, so
  // mixing a chunk equals mixing its records field by field.
  std::vector<unsigned char> chunk = ChunkBuffer(num_requests);
  for (std::uint64_t i = 0; i < num_requests;) {
    const std::uint64_t n =
        std::min<std::uint64_t>(kTraceChunkRecords, num_requests - i);
    if (!ReadRaw(f, sum, chunk.data(), n * kRecordBytes)) {
      return std::nullopt;
    }
    for (std::uint64_t j = 0; j < n; ++j) {
      Request& r = trace.requests[i + j];
      if (!DecodeRecord(chunk.data() + j * kRecordBytes, num_hints, &r)) {
        return std::nullopt;
      }
      if (r.client > max_client) max_client = r.client;
    }
    i += n;
  }
  // Requests stream through this loop anyway, so the client bound comes
  // for free — Simulate() then never re-scans a loaded trace.
  trace.client_bound = static_cast<std::uint32_t>(max_client) + 1;

  std::uint64_t stored = 0;
  if (std::fread(&stored, 1, sizeof(stored), f) != sizeof(stored)) {
    return std::nullopt;
  }
  if (stored != sum.value()) return std::nullopt;
  return trace;
}

}  // namespace clic
