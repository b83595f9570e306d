#include "runner/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "check/check.h"

namespace pdp
{
namespace runner
{

double
Json::asNumber() const
{
    switch (numKind_) {
    case NumKind::Real:
        return num_;
    case NumKind::Signed:
        return static_cast<double>(int_);
    case NumKind::Unsigned:
        return static_cast<double>(uint_);
    }
    return 0.0;
}

uint64_t
Json::asUint() const
{
    switch (numKind_) {
    case NumKind::Real:
        return static_cast<uint64_t>(num_);
    case NumKind::Signed:
        return static_cast<uint64_t>(int_);
    case NumKind::Unsigned:
        return uint_;
    }
    return 0;
}

size_t
Json::size() const
{
    if (type_ == Type::Array)
        return items_.size();
    if (type_ == Type::Object)
        return fields_.size();
    return 0;
}

Json &
Json::push(Json value)
{
    PDP_CHECK(type_ == Type::Array, "push on a non-array Json value");
    items_.push_back(std::move(value));
    return *this;
}

Json &
Json::set(const std::string &key, Json value)
{
    PDP_CHECK(type_ == Type::Object, "set on a non-object Json value");
    for (auto &field : fields_) {
        if (field.first == key) {
            field.second = std::move(value);
            return *this;
        }
    }
    fields_.emplace_back(key, std::move(value));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &field : fields_)
        if (field.first == key)
            return &field.second;
    return nullptr;
}

namespace
{

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
    case Type::Null:
        out += "null";
        return;
    case Type::Bool:
        out += bool_ ? "true" : "false";
        return;
    case Type::Number: {
        char buf[40];
        if (numKind_ == NumKind::Signed) {
            std::snprintf(buf, sizeof buf, "%lld",
                          static_cast<long long>(int_));
            out += buf;
        } else if (numKind_ == NumKind::Unsigned) {
            std::snprintf(buf, sizeof buf, "%llu",
                          static_cast<unsigned long long>(uint_));
            out += buf;
        } else if (!std::isfinite(num_)) {
            out += "null";
        } else {
            // Shortest round-trip representation.
            const auto res =
                std::to_chars(buf, buf + sizeof buf - 1, num_);
            *res.ptr = '\0';
            out += buf;
        }
        return;
    }
    case Type::String:
        escapeString(out, str_);
        return;
    case Type::Array: {
        if (items_.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            newlineIndent(out, indent, depth + 1);
            items_[i].dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += ']';
        return;
    }
    case Type::Object: {
        if (fields_.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        for (size_t i = 0; i < fields_.size(); ++i) {
            if (i)
                out += ',';
            newlineIndent(out, indent, depth + 1);
            escapeString(out, fields_[i].first);
            out += indent > 0 ? ": " : ":";
            fields_[i].second.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += '}';
        return;
    }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

} // namespace runner
} // namespace pdp
