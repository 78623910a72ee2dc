#include "synth/synth_json.h"

#include <utility>

#include "impl/impl_json.h"

namespace lrt::synth {

void write_json(const SynthesisResult& result, JsonWriter& json) {
  json.begin_object();
  json.key("implementation");
  impl::write_json(result.config, json);
  json.key("replication_count");
  json.value(result.replication_count);
  json.end_object();
}

std::string to_json(const SynthesisResult& result) {
  JsonWriter json;
  write_json(result, json);
  return std::move(json).str();
}

}  // namespace lrt::synth
