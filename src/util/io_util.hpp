// Filesystem helpers with explicit error reporting (exceptions carry the
// offending path). Used by Corpus::materialize() and the examples.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace fhc::util {

/// Reads an entire regular file into memory. Throws std::runtime_error on
/// failure, and for anything that is not a regular file (a FIFO would
/// otherwise block the caller forever).
std::vector<std::uint8_t> read_file(const std::filesystem::path& path);

/// Writes `data` to `path`, creating parent directories. Throws on failure.
void write_file(const std::filesystem::path& path, std::span<const std::uint8_t> data);
void write_file(const std::filesystem::path& path, const std::string& text);

/// Recursively lists regular files under `root`, sorted for determinism.
std::vector<std::filesystem::path> list_files(const std::filesystem::path& root);

}  // namespace fhc::util
