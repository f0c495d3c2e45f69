#include "sim/json.hh"

#include <cctype>
#include <string_view>

#include "sim/parse_util.hh"

namespace gpummu {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

/** Tiny recursive-descent JSON parser (not perf-critical). Strings
 *  handle the escapes jsonEscape() emits; depth_ bounds the recursion
 *  at kJsonMaxDepth. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *err)
        : s_(text), err_(err)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &why)
    {
        if (err_ != nullptr && err_->empty()) {
            *err_ = "json parse error at byte " +
                    std::to_string(pos_) + ": " + why;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    literal(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    value(JsonValue &out)
    {
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        const char c = s_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == kJsonMaxDepth) {
                return fail("nesting deeper than " +
                            std::to_string(kJsonMaxDepth));
            }
            ++depth_;
            const bool ok = c == '{' ? object(out) : array(out);
            --depth_;
            return ok;
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.str);
        }
        if (literal("true")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
        }
        if (literal("null")) {
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        return number(out);
    }

    bool
    object(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected object key");
            if (!string(key))
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return fail("expected ':' after key");
            ++pos_;
            skipWs();
            JsonValue v;
            if (!value(v))
                return false;
            out.members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= s_.size())
                return fail("unterminated object");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue v;
            if (!value(v))
                return false;
            out.items.push_back(std::move(v));
            skipWs();
            if (pos_ >= s_.size())
                return fail("unterminated array");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    string(std::string &out)
    {
        ++pos_; // '"'
        out.clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return fail("unterminated escape");
                const char e = s_[pos_++];
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'u': {
                    if (pos_ + 4 > s_.size())
                        return fail("truncated \\u escape");
                    // Keep the raw escape: no reader here needs
                    // exact code-point decoding.
                    out += "\\u";
                    out += s_.substr(pos_, 4);
                    pos_ += 4;
                    break;
                  }
                  default:
                    return fail("bad escape character");
                }
                continue;
            }
            out += c;
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return fail("expected a value");
        // Locale-independent strict parse: emit uses jsonNum
        // (to_chars), so parse must not consult LC_NUMERIC — under a
        // comma-decimal locale std::stod would misparse "1.5" as 1
        // and break the byte-stability round trip.
        if (!parseDouble(
                std::string_view(s_).substr(start, pos_ - start),
                out.number)) {
            return fail("bad number");
        }
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    const std::string &s_;
    std::string *err_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string *err)
{
    if (err != nullptr)
        err->clear();
    JsonParser p(text, err);
    return p.parse(out);
}

} // namespace gpummu
