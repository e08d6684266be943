#include "sim/trace_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/fnv1a.h"
#include "common/rng.h"
#include "core/trace.h"

namespace clic {
namespace {

Trace SmallTrace() {
  Trace trace;
  trace.name = "unit";
  const HintSetId a = trace.hints->Intern(HintVector{0, {1, 2, 3}});
  const HintSetId b = trace.hints->Intern(HintVector{1, {7}});
  const HintSetId c = trace.hints->Intern(HintVector{0, {}});
  trace.requests = {
      {10, a, 0, OpType::kRead, WriteKind::kNone},
      {11, b, 1, OpType::kWrite, WriteKind::kReplacement},
      {12, c, 0, OpType::kWrite, WriteKind::kRecovery},
      {10, a, 0, OpType::kRead, WriteKind::kNone},
  };
  return trace;
}

class TraceIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "clic_trace_io_test.trc";
};

TEST_F(TraceIoTest, RoundTrip) {
  const Trace original = SmallTrace();
  ASSERT_TRUE(SaveTrace(original, path_));
  auto loaded = LoadTrace(path_, "unit");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, original.name);
  ASSERT_EQ(loaded->requests.size(), original.requests.size());
  for (std::size_t i = 0; i < original.requests.size(); ++i) {
    const Request& a = original.requests[i];
    const Request& b = loaded->requests[i];
    EXPECT_EQ(a.page, b.page);
    EXPECT_EQ(a.hint_set, b.hint_set);
    EXPECT_EQ(a.client, b.client);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.write_kind, b.write_kind);
  }
  ASSERT_EQ(loaded->hints->size(), original.hints->size());
  for (HintSetId h = 0; h < original.hints->size(); ++h) {
    EXPECT_EQ(loaded->hints->Describe(h), original.hints->Describe(h));
    EXPECT_EQ(loaded->hints->Get(h), original.hints->Get(h));
  }
}

TEST_F(TraceIoTest, RejectsWrongName) {
  ASSERT_TRUE(SaveTrace(SmallTrace(), path_));
  EXPECT_FALSE(LoadTrace(path_, "other").has_value());
}

TEST_F(TraceIoTest, RejectsMissingFile) {
  EXPECT_FALSE(LoadTrace(path_ + ".nope", "unit").has_value());
}

TEST_F(TraceIoTest, RejectsCorruption) {
  ASSERT_TRUE(SaveTrace(SmallTrace(), path_));
  // Flip one byte in the middle of the file.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  int byte = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(byte ^ 0xFF, f);
  std::fclose(f);
  EXPECT_FALSE(LoadTrace(path_, "unit").has_value());
}

TEST_F(TraceIoTest, RejectsTruncation) {
  ASSERT_TRUE(SaveTrace(SmallTrace(), path_));
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path_.c_str(), size - 9), 0);
  EXPECT_FALSE(LoadTrace(path_, "unit").has_value());
}

// ---------------------------------------------------------------------
// Seeded corruption fuzzing. The format ends in an FNV-1a checksum of
// everything before it, and FNV-1a's per-byte step (hash ^= byte, then
// multiply by an odd prime) is bijective, so ANY single-bit flip in the
// file must either trip a structural bound or miss the checksum — the
// loader always fails closed, never returns a silently-different trace.
// ---------------------------------------------------------------------

Trace FuzzTrace() {
  Trace trace;
  trace.name = "fuzz";
  Rng rng(0xF00D);
  std::vector<HintSetId> ids;
  for (std::uint32_t i = 0; i < 16; ++i) {
    HintVector v;
    v.client = static_cast<ClientId>(i % 4);
    const std::size_t nattrs = rng.Below(5);
    for (std::size_t a = 0; a < nattrs; ++a) {
      v.attrs.push_back(static_cast<std::uint32_t>(rng.Below(1000)));
    }
    ids.push_back(trace.hints->Intern(std::move(v)));
  }
  for (std::size_t i = 0; i < 512; ++i) {
    Request r;
    r.page = static_cast<PageId>(rng.Below(4096));
    r.hint_set = ids[rng.Below(ids.size())];
    r.client = static_cast<ClientId>(rng.Below(4));
    if (rng.Chance(0.3)) {
      r.op = OpType::kWrite;
      r.write_kind =
          rng.Chance(0.5) ? WriteKind::kReplacement : WriteKind::kRecovery;
    }
    trace.requests.push_back(r);
  }
  return trace;
}

std::vector<unsigned char> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<unsigned char> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path,
              const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST_F(TraceIoTest, BitFlipFuzzAlwaysFailsClosed) {
  ASSERT_TRUE(SaveTrace(FuzzTrace(), path_));
  const std::vector<unsigned char> pristine = ReadAll(path_);
  ASSERT_GT(pristine.size(), 64u);
  Rng rng(2009);  // deterministic: failures reproduce byte-for-byte
  for (int round = 0; round < 256; ++round) {
    std::vector<unsigned char> mutated = pristine;
    const std::size_t offset = rng.Below(mutated.size());
    const unsigned char mask =
        static_cast<unsigned char>(1u << rng.Below(8));
    mutated[offset] ^= mask;
    WriteAll(path_, mutated);
    EXPECT_FALSE(LoadTrace(path_, "fuzz").has_value())
        << "bit flip at offset " << offset << " mask " << int(mask)
        << " (round " << round << ") was silently accepted";
  }
  // Sanity: the pristine bytes still load, so the failures above came
  // from the corruption, not from a broken fixture.
  WriteAll(path_, pristine);
  EXPECT_TRUE(LoadTrace(path_, "fuzz").has_value());
}

TEST_F(TraceIoTest, TruncationFuzzAlwaysFailsClosed) {
  ASSERT_TRUE(SaveTrace(FuzzTrace(), path_));
  const std::vector<unsigned char> pristine = ReadAll(path_);
  Rng rng(2010);
  for (int round = 0; round < 64; ++round) {
    const std::size_t keep = rng.Below(pristine.size());  // < full size
    WriteAll(path_, std::vector<unsigned char>(pristine.begin(),
                                               pristine.begin() + keep));
    EXPECT_FALSE(LoadTrace(path_, "fuzz").has_value())
        << "truncation to " << keep << " of " << pristine.size()
        << " bytes was accepted";
  }
}

TEST_F(TraceIoTest, AbsurdHeaderCountsFailFastWithoutAllocating) {
  const Trace trace = FuzzTrace();
  ASSERT_TRUE(SaveTrace(trace, path_));
  const std::vector<unsigned char> pristine = ReadAll(path_);

  auto patch_u64 = [&](std::size_t offset, std::uint64_t value) {
    std::vector<unsigned char> mutated = pristine;
    ASSERT_LE(offset + sizeof(value), mutated.size());
    std::memcpy(mutated.data() + offset, &value, sizeof(value));
    WriteAll(path_, mutated);
  };
  auto patch_u32 = [&](std::size_t offset, std::uint32_t value) {
    std::vector<unsigned char> mutated = pristine;
    ASSERT_LE(offset + sizeof(value), mutated.size());
    std::memcpy(mutated.data() + offset, &value, sizeof(value));
    WriteAll(path_, mutated);
  };

  // Layout: magic(4) version(4) name_len(4) name then num_hints(8),
  // per-hint {client(2) nattrs(4) attrs(4 each)}, num_requests(8).
  const std::size_t num_hints_at = 12 + trace.name.size();
  std::size_t num_requests_at = num_hints_at + 8;
  for (HintSetId h = 0; h < trace.hints->size(); ++h) {
    num_requests_at += sizeof(ClientId) + 4 +
                       trace.hints->Get(h).attrs.size() * sizeof(std::uint32_t);
  }

  // A 16-exabyte hint count or request count must be rejected by the
  // file-size bound before any resize() — a crash or bad_alloc here
  // means the loader trusted the header.
  patch_u64(num_hints_at, ~0ull);
  EXPECT_FALSE(LoadTrace(path_, "fuzz").has_value());
  patch_u64(num_hints_at, static_cast<std::uint64_t>(pristine.size()));
  EXPECT_FALSE(LoadTrace(path_, "fuzz").has_value());
  patch_u64(num_requests_at, ~0ull);
  EXPECT_FALSE(LoadTrace(path_, "fuzz").has_value());
  patch_u64(num_requests_at, static_cast<std::uint64_t>(pristine.size()));
  EXPECT_FALSE(LoadTrace(path_, "fuzz").has_value());

  // Oversized name length (caps at 4096) and first-hint nattrs (same
  // cap) must also fail fast.
  patch_u32(8, 0xFFFFFFFFu);
  EXPECT_FALSE(LoadTrace(path_, "fuzz").has_value());
  patch_u32(num_hints_at + 8 + sizeof(ClientId), 0xFFFFFFFFu);
  EXPECT_FALSE(LoadTrace(path_, "fuzz").has_value());

  WriteAll(path_, pristine);
  EXPECT_TRUE(LoadTrace(path_, "fuzz").has_value());
}

// ---------------------------------------------------------------------
// Chunked record I/O. Requests move kTraceChunkRecords at a time; the
// tests below cross chunk boundaries and pin that the bytes on disk are
// exactly the field-by-field format, checksum included.
// ---------------------------------------------------------------------

Trace MultiChunkTrace() {
  Trace trace;
  trace.name = "chunks";
  Rng rng(0xC4C4);
  for (std::uint32_t i = 0; i < 40; ++i) {
    trace.hints->Intern(HintVector{static_cast<ClientId>(i % 3), {i, i * 7}});
  }
  // Two full chunks plus a ragged tail.
  const std::size_t n = 2 * kTraceChunkRecords + 12'345;
  trace.requests.resize(n);
  for (Request& r : trace.requests) {
    r.page = static_cast<PageId>(rng.Next());
    r.hint_set = static_cast<HintSetId>(rng.Below(40));
    r.client = static_cast<ClientId>(rng.Below(3));
    const std::uint64_t kind = rng.Below(3);
    r.op = kind == 0 ? OpType::kRead : OpType::kWrite;
    r.write_kind = static_cast<WriteKind>(kind);
  }
  return trace;
}

/// The .trc format written one field at a time: the reference the
/// chunked writer must match byte for byte.
std::vector<unsigned char> FieldByFieldBytes(const Trace& trace) {
  std::vector<unsigned char> out;
  auto put = [&](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    out.insert(out.end(), p, p + n);
  };
  const std::uint32_t magic = 0x434C5452, version = 1;
  const auto name_len = static_cast<std::uint32_t>(trace.name.size());
  put(&magic, 4);
  put(&version, 4);
  put(&name_len, 4);
  put(trace.name.data(), name_len);
  const std::uint64_t num_hints = trace.hints->size();
  put(&num_hints, 8);
  for (HintSetId h = 0; h < num_hints; ++h) {
    const HintVector& v = trace.hints->Get(h);
    const auto nattrs = static_cast<std::uint32_t>(v.attrs.size());
    put(&v.client, sizeof(v.client));
    put(&nattrs, 4);
    put(v.attrs.data(), nattrs * sizeof(std::uint32_t));
  }
  const std::uint64_t num_requests = trace.requests.size();
  put(&num_requests, 8);
  for (const Request& r : trace.requests) {
    const auto op = static_cast<std::uint8_t>(r.op);
    const auto write_kind = static_cast<std::uint8_t>(r.write_kind);
    put(&r.page, 4);
    put(&r.hint_set, 4);
    put(&r.client, 2);
    put(&op, 1);
    put(&write_kind, 1);
  }
  Fnv1a sum;
  sum.Mix(out.data(), out.size());
  const std::uint64_t checksum = sum.value();
  put(&checksum, 8);
  return out;
}

/// Byte offset of request record i in a file written for `trace`.
std::size_t RecordOffset(const Trace& trace, std::size_t i) {
  std::size_t at = 12 + trace.name.size() + 8;
  for (HintSetId h = 0; h < trace.hints->size(); ++h) {
    at += sizeof(ClientId) + 4 +
          trace.hints->Get(h).attrs.size() * sizeof(std::uint32_t);
  }
  return at + 8 + 12 * i;
}

/// Recomputes the trailing checksum, so only the structural checks
/// stand between a patched record and the loader's output.
void ResealChecksum(std::vector<unsigned char>* bytes) {
  Fnv1a sum;
  sum.Mix(bytes->data(), bytes->size() - 8);
  const std::uint64_t checksum = sum.value();
  std::memcpy(bytes->data() + bytes->size() - 8, &checksum, 8);
}

TEST_F(TraceIoTest, MultiChunkRoundTripIsTheFieldByFieldFormat) {
  const Trace original = MultiChunkTrace();
  ASSERT_TRUE(SaveTrace(original, path_));
  const std::vector<unsigned char> reference = FieldByFieldBytes(original);
  ASSERT_EQ(ReadAll(path_), reference);

  WriteAll(path_, reference);
  auto loaded = LoadTrace(path_, "chunks");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->requests.size(), original.requests.size());
  for (std::size_t i = 0; i < original.requests.size(); ++i) {
    const Request& a = original.requests[i];
    const Request& b = loaded->requests[i];
    ASSERT_TRUE(a.page == b.page && a.hint_set == b.hint_set &&
                a.client == b.client && a.op == b.op &&
                a.write_kind == b.write_kind)
        << "request " << i;
  }
  ASSERT_EQ(loaded->hints->size(), original.hints->size());
  for (HintSetId h = 0; h < original.hints->size(); ++h) {
    EXPECT_EQ(loaded->hints->Get(h), original.hints->Get(h));
  }
  EXPECT_EQ(loaded->client_bound, 3u);
}

TEST_F(TraceIoTest, BadOpInMiddleChunkFailsClosed) {
  const Trace trace = MultiChunkTrace();
  std::vector<unsigned char> bytes = FieldByFieldBytes(trace);
  const std::size_t i = kTraceChunkRecords + 777;  // inside chunk 2 of 3
  bytes[RecordOffset(trace, i) + 10] = 2;           // op is 0 or 1
  ResealChecksum(&bytes);
  WriteAll(path_, bytes);
  EXPECT_FALSE(LoadTrace(path_, "chunks").has_value());

  bytes = FieldByFieldBytes(trace);
  bytes[RecordOffset(trace, i) + 11] = 3;  // write_kind is 0..2
  ResealChecksum(&bytes);
  WriteAll(path_, bytes);
  EXPECT_FALSE(LoadTrace(path_, "chunks").has_value());
}

TEST_F(TraceIoTest, OutOfRangeHintInLastChunkFailsClosed) {
  const Trace trace = MultiChunkTrace();
  std::vector<unsigned char> bytes = FieldByFieldBytes(trace);
  const std::size_t last = trace.requests.size() - 1;
  const auto bad = static_cast<HintSetId>(trace.hints->size());
  std::memcpy(bytes.data() + RecordOffset(trace, last) + 4, &bad, 4);
  ResealChecksum(&bytes);
  WriteAll(path_, bytes);
  EXPECT_FALSE(LoadTrace(path_, "chunks").has_value());

  // Control: the largest in-range id, resealed the same way, loads and
  // lands on the patched record, so the failure above is the hint bound.
  const HintSetId good = bad - 1;
  std::memcpy(bytes.data() + RecordOffset(trace, last) + 4, &good, 4);
  ResealChecksum(&bytes);
  WriteAll(path_, bytes);
  auto loaded = LoadTrace(path_, "chunks");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->requests[last].hint_set, good);
}

}  // namespace
}  // namespace clic
