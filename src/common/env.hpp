// Environment-variable configuration.
//
// The paper exposes library tunables ("any environment variables we create
// for fine-tuning of our library", §IV-A).  All partib tunables use the
// PARTIB_ prefix and are read through this one facility so they can be
// enumerated and documented in one place.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace partib {

/// Raw lookup; returns nullopt when unset or empty.
std::optional<std::string> env_string(const char* name);

/// Integer lookup; returns `fallback` when unset; aborts on non-numeric
/// values so typos are caught instead of silently ignored.
std::int64_t env_int(const char* name, std::int64_t fallback);

}  // namespace partib
