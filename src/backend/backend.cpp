#include "backend/backend.hpp"

#include <utility>

#include "backend/des_backend.hpp"
#include "backend/shm/shm_backend.hpp"
#include "check/check.hpp"

namespace partib::backend {
namespace {

struct Entry {
  std::string name;
  Factory factory;
};

// Registration order defines backend_names() order; "des" is first so it
// is the documented default everywhere the list is shown.
std::vector<Entry>& registry() {
  static std::vector<Entry>* entries = [] {
    auto* e = new std::vector<Entry>();
    e->push_back({"des", [](const Config& cfg) -> std::unique_ptr<Backend> {
                    return std::make_unique<DesBackend>(cfg);
                  }});
    e->push_back({"shm", [](const Config& cfg) -> std::unique_ptr<Backend> {
                    return std::make_unique<ShmBackend>(cfg);
                  }});
    return e;
  }();
  return *entries;
}

std::string joined_names() {
  std::string out;
  for (const Entry& e : registry()) {
    if (!out.empty()) out += ", ";
    out += e.name;
  }
  return out;
}

}  // namespace

void register_backend(std::string_view name, Factory factory) {
  for (Entry& e : registry()) {
    if (e.name == name) {
      e.factory = factory;
      return;
    }
  }
  registry().push_back({std::string(name), factory});
}

std::unique_ptr<Backend> make_backend(std::string_view name,
                                      const Config& config) {
  for (const Entry& e : registry()) {
    if (e.name == name) return e.factory(config);
  }
  // Through the checker sink, not raw diag_emit: policy-aware (tests
  // count it silently under Policy::kCount) and recorded against the
  // registered rule id.
  const std::string requested(name);
  check::report("backend.unknown", requested.c_str(), /*rank=*/-1,
                "registered backends: " + joined_names());
  return nullptr;
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const Entry& e : registry()) names.push_back(e.name);
  return names;
}

bool backend_registered(std::string_view name) {
  for (const Entry& e : registry()) {
    if (e.name == name) return true;
  }
  return false;
}

}  // namespace partib::backend
