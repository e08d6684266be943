// Binary trace serialization. A .trc file stores the trace name, the
// full hint registry (so Describe() works after loading) and the packed
// request records, protected by an FNV-1a checksum. LoadTrace returns
// nullopt on any mismatch — wrong name, version, truncation, corruption
// — so callers fall back to regeneration.
//
// Request records move in chunks of kTraceChunkRecords: one fread or
// fwrite and one checksum pass per chunk, decoded and validated in a
// tight loop. Chunking is invisible in the file: the bytes and the
// checksum are those of the records written one field at a time.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/trace.h"

namespace clic {

/// Request records per I/O chunk (12 bytes each on disk, 768 KiB).
inline constexpr std::size_t kTraceChunkRecords = std::size_t{1} << 16;

bool SaveTrace(const Trace& trace, const std::string& path);

std::optional<Trace> LoadTrace(const std::string& path,
                               const std::string& expected_name);

}  // namespace clic
