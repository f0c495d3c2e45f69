/**
 * @file
 * Strict, locale-independent numeric parsing.
 *
 * The misparse-tolerant C parsing family (atoi/atof/atoll and the
 * locale-dependent std::stod) silently accepts trailing garbage
 * ("--jobs=4abc" becomes 4), treats overflow as UB or garbage, and —
 * for the floating-point members — changes meaning under a non-C
 * LC_NUMERIC locale ("1.5" parses as 1 when the decimal separator is
 * a comma). PR 8 evicted that family from the sweep substrate
 * (core/sweep.cc resolveJobs, bench/dse_pareto); these helpers are
 * the shared home of that idiom so every CLI flag and JSON number in
 * the tree parses the same way:
 *
 *  - the WHOLE token must parse (no trailing characters),
 *  - out-of-range values are rejected, not wrapped,
 *  - parsing never consults the locale (std::from_chars),
 *  - failure is a bool, never a silent zero.
 */

#ifndef SIM_PARSE_UTIL_HH
#define SIM_PARSE_UTIL_HH

#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>

namespace gpummu {

/**
 * Parse the whole of @p s as an integer of type T. Returns false —
 * leaving @p out untouched — on empty input, trailing characters,
 * a sign the type cannot hold, or overflow.
 */
template <typename T>
inline bool
parseNum(std::string_view s, T &out)
{
    static_assert(std::is_integral_v<T>,
                  "parseNum is for integers; use parseDouble");
    T v{};
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

/**
 * Parse the whole of @p s as a double, locale-independently.
 * Accepts the JSON number grammar (and from_chars extras like "inf");
 * rejects empty input, trailing characters and a leading '+'.
 */
inline bool
parseDouble(std::string_view s, double &out)
{
    double v{};
    const char *end = s.data() + s.size();
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
#else
#error "parseDouble needs std::from_chars(double); GCC >= 11 / " \
       "Clang >= 14 provide it"
#endif
    out = v;
    return true;
}

/**
 * Parse @p s as a workload scale: a finite number above zero.
 * parseDouble alone lets through "nan" and "inf", which would size a
 * run by NaN (clamped to one unit) or map an unbounded region.
 */
inline bool
parseScale(std::string_view s, double &out)
{
    double v{};
    if (!parseDouble(s, v) || !std::isfinite(v) || v <= 0.0)
        return false;
    out = v;
    return true;
}

} // namespace gpummu

#endif // SIM_PARSE_UTIL_HH
