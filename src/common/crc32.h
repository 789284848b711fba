#ifndef STMAKER_COMMON_CRC32_H_
#define STMAKER_COMMON_CRC32_H_

/// \file
/// CRC-32 checksum used to verify persisted model and dataset files.

#include <cstdint>
#include <string_view>

namespace stmaker {

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial 0xEDB88320) of `data`,
/// computed slice-by-8 (eight bytes per step). Used by model manifests and
/// container sections to detect truncated or bit-flipped files before they
/// are parsed. `seed` allows incremental computation: pass a previous
/// checksum to continue it over the next chunk.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

}  // namespace stmaker

#endif  // STMAKER_COMMON_CRC32_H_
