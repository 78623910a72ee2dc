// JSON codec for the synthesis result summary the lrtd synthesize verb
// returns: the winning implementation config (canonical impl document)
// plus the deterministic search statistics. Search-effort counters that
// vary with thread count (cache hits/misses, prunes, incumbent updates)
// are deliberately excluded — lrtd responses must be byte-identical for
// every worker count, so only the mapping and its cost travel the wire.
#ifndef LRT_SYNTH_SYNTH_JSON_H_
#define LRT_SYNTH_SYNTH_JSON_H_

#include <string>

#include "support/json.h"
#include "synth/synthesis.h"

namespace lrt::synth {

/// {"implementation": <canonical impl config>, "replication_count": n}.
void write_json(const SynthesisResult& result, JsonWriter& json);
[[nodiscard]] std::string to_json(const SynthesisResult& result);

}  // namespace lrt::synth

#endif  // LRT_SYNTH_SYNTH_JSON_H_
