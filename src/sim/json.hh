/**
 * @file
 * Minimal JSON reader.
 *
 * Parses the simulator's own JSON exports back in; its one user is
 * the DSE autotuner, which reloads a previous sweep's output to resume
 * it (dse/autotuner.cc). Numbers parse with the locale-free
 * parseDouble(), matching jsonNum() on the writing side, so a
 * comma-decimal LC_NUMERIC cannot break the emit→parse round trip.
 * Input is untrusted: every malformed document, including one nested
 * deeper than kJsonMaxDepth, fails with a located error instead of
 * crashing.
 */

#ifndef SIM_JSON_HH
#define SIM_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace gpummu {

/** Deepest array/object nesting parseJson() accepts. The DSE payloads
 *  nest 3 deep; the cap keeps the recursive descent's stack bounded. */
inline constexpr int kJsonMaxDepth = 64;

/**
 * Minimal JSON document model (objects, arrays, strings, numbers,
 * bools, null — no NaN/Infinity, per the JSON grammar). Numbers are
 * held as double.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items; ///< Array elements.
    std::vector<std::pair<std::string, JsonValue>> members;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/** Parse @p text as a single JSON document. Returns false and sets
 *  @p err (if non-null) on malformed input. */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *err = nullptr);

} // namespace gpummu

#endif // SIM_JSON_HH
