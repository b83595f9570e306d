/**
 * @file
 * Minimal JSON value model and writer for the experiment runner.
 *
 * The container images carry no JSON library, so the runner brings its
 * own: just enough of RFC 8259 to write the BENCH, TRACE and FLIGHT
 * files.  The program only writes JSON; tools/pdpreport.py is the one
 * reader of those files.
 *
 * Determinism: dump() is a pure function of the value tree.  Object keys
 * keep insertion order (the emitting code orders them), doubles print in
 * shortest round-trip form via std::to_chars, and integers print exactly.
 * Non-finite doubles serialize as null (JSON has no NaN/Inf).
 */

#ifndef PDP_RUNNER_JSON_H
#define PDP_RUNNER_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pdp
{
namespace runner
{

/** A JSON value: null, bool, number, string, array or object. */
class Json
{
  public:
    Json() = default;
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), num_(d), numKind_(NumKind::Real) {}
    Json(int64_t i)
        : type_(Type::Number), int_(i), numKind_(NumKind::Signed)
    {}
    Json(uint64_t u)
        : type_(Type::Number), uint_(u), numKind_(NumKind::Unsigned)
    {}
    Json(int i) : Json(static_cast<int64_t>(i)) {}
    Json(unsigned u) : Json(static_cast<uint64_t>(u)) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static Json
    array()
    {
        Json j;
        j.type_ = Type::Array;
        return j;
    }

    static Json
    object()
    {
        Json j;
        j.type_ = Type::Object;
        return j;
    }

    bool isNull() const { return type_ == Type::Null; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }

    bool asBool() const { return bool_; }

    /** Numeric value as double (whatever the stored representation). */
    double asNumber() const;

    /** Numeric value as uint64 (truncating a real, wrapping a negative). */
    uint64_t asUint() const;

    const std::string &asString() const { return str_; }

    /** Array/object element count (0 for scalars). */
    size_t size() const;

    /** Append to an array (value must be an array). */
    Json &push(Json value);

    /** Array element access (unchecked beyond PDP-style clamping is the
     *  caller's business; throws via std::vector::at). */
    const Json &at(size_t index) const { return items_.at(index); }

    /** Set an object member, replacing an existing key.  Returns *this
     *  so construction chains. */
    Json &set(const std::string &key, Json value);

    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

  private:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    enum class NumKind
    {
        Real,
        Signed,
        Unsigned,
    };

    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    int64_t int_ = 0;
    uint64_t uint_ = 0;
    NumKind numKind_ = NumKind::Real;
    std::string str_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> fields_;
};

} // namespace runner
} // namespace pdp

#endif // PDP_RUNNER_JSON_H
