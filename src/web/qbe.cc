#include "web/qbe.h"

#include "common/string_util.h"
#include "web/html.h"

namespace easia::web {

namespace {

/// Quotes / passes through a literal by column type; converts '*'/'?'
/// wildcards to LIKE syntax. Returns (sql_literal, use_like).
Result<std::pair<std::string, bool>> RenderLiteral(
    const xuis::XuisColumn& col, const std::string& op,
    const std::string& value) {
  if (op == "LIKE") {
    // Explicit LIKE: the user writes SQL wildcards themselves.
    return std::make_pair("'" + ReplaceAll(value, "'", "''") + "'", true);
  }
  bool has_wildcard = value.find('*') != std::string::npos ||
                      value.find('?') != std::string::npos;
  if (has_wildcard && (op.empty() || op == "=")) {
    // Web-style wildcards auto-map to LIKE. Our LIKE has no escape
    // handling, so a raw '%' cannot be expressed in this mode.
    if (value.find('%') != std::string::npos) {
      return Status::InvalidArgument(
          "use '*' (any run) and '?' (one char) as wildcards");
    }
    std::string pattern = ReplaceAll(value, "*", "%");
    pattern = ReplaceAll(pattern, "?", "_");
    return std::make_pair("'" + ReplaceAll(pattern, "'", "''") + "'", true);
  }
  if (db::IsNumericType(col.type)) {
    EASIA_ASSIGN_OR_RETURN(double parsed, ParseDouble(value));
    (void)parsed;
    return std::make_pair(std::string(Trim(value)), false);
  }
  return std::make_pair("'" + ReplaceAll(value, "'", "''") + "'", false);
}

}  // namespace

const std::vector<std::string>& QbeOperators() {
  static const std::vector<std::string>* const kOps =
      new std::vector<std::string>{"=", "<>", "<", "<=", ">", ">=", "LIKE"};
  return *kOps;
}

std::string RenderQueryForm(const xuis::XuisTable& table) {
  HtmlWriter w;
  w.Raw(PageHeader("Query " + table.DisplayName()));
  w.Open("form", {{"action", "/search"}, {"method", "post"}});
  w.Void("input", {{"type", "hidden"}, {"name", "table"},
                   {"value", table.name}});
  w.Open("table", {{"border", "1"}});
  w.Open("tr");
  for (std::string_view h : {"Field", "Show", "Operator", "Value", "Samples"}) {
    w.Element("th", h);
  }
  w.Close();  // tr
  for (const xuis::XuisColumn& col : table.columns) {
    if (col.hidden) continue;
    w.Open("tr");
    w.Element("td", col.DisplayName());
    w.Open("td");
    w.Void("input", {{"type", "checkbox"},
                     {"name", "show." + col.name},
                     {"checked", "checked"}});
    w.Close();
    w.Open("td").Open("select", {{"name", "op." + col.name}});
    for (const std::string& op : QbeOperators()) {
      w.Element("option", op, {{"value", op}});
    }
    w.Close().Close();
    w.Open("td");
    w.Void("input", {{"type", "text"}, {"name", "value." + col.name}});
    w.Close();
    w.Open("td");
    if (!col.samples.empty()) {
      w.Open("select", {{"name", "sample." + col.name}});
      w.Element("option", "(sample values)", {{"value", ""}});
      for (const std::string& sample : col.samples) {
        w.Element("option", sample, {{"value", sample}});
      }
      w.Close();
    }
    w.Close();  // td
    w.Close();  // tr
  }
  w.Close();  // table
  w.Void("input", {{"type", "submit"}, {"value", "Search"}});
  w.Close();  // form
  w.Raw(PageFooter());
  return w.Finish();
}

std::string RenderTableIndex(const xuis::XuisSpec& spec) {
  HtmlWriter w;
  w.Raw(PageHeader("Archive: " + spec.database));
  w.Open("ul");
  for (const xuis::XuisTable* table : spec.VisibleTables()) {
    w.Open("li");
    w.Link(BuildUrl("/query", {{"table", table->name}}),
           "Query " + table->DisplayName());
    w.Text(" | ");
    w.Link(BuildUrl("/search", {{"table", table->name}, {"all", "1"}}),
           "All rows");
    w.Close();
  }
  w.Close();
  w.Raw(PageFooter());
  return w.Finish();
}

Result<std::string> TranslateToSql(const xuis::XuisSpec& spec,
                                   const QbeRequest& request) {
  const xuis::XuisTable* table = spec.FindTable(request.table);
  if (table == nullptr) {
    return Status::NotFound("qbe: unknown table " + request.table);
  }
  if (table->hidden) {
    return Status::PermissionDenied("qbe: table " + request.table +
                                    " is hidden from this interface");
  }
  auto visible_column = [&](const std::string& name)
      -> Result<const xuis::XuisColumn*> {
    const xuis::XuisColumn* col = table->FindColumn(name);
    if (col == nullptr) {
      return Status::NotFound("qbe: unknown column " + name);
    }
    if (col->hidden) {
      return Status::PermissionDenied("qbe: column " + name + " is hidden");
    }
    return col;
  };
  std::vector<std::string> select_list;
  if (request.selected_columns.empty()) {
    for (const xuis::XuisColumn& col : table->columns) {
      if (!col.hidden) select_list.push_back(col.name);
    }
  } else {
    for (const std::string& name : request.selected_columns) {
      EASIA_ASSIGN_OR_RETURN(const xuis::XuisColumn* col,
                             visible_column(name));
      select_list.push_back(col->name);
    }
  }
  // Primary-key columns must ride along (hyperlink targets) even when not
  // ticked; append any that are missing.
  for (const xuis::XuisColumn& col : table->columns) {
    if (!col.is_primary_key) continue;
    bool present = false;
    for (const std::string& s : select_list) {
      if (EqualsIgnoreCase(s, col.name)) present = true;
    }
    if (!present) select_list.push_back(col.name);
  }
  if (select_list.empty()) {
    return Status::InvalidArgument("qbe: no columns selected");
  }
  std::string sql = "SELECT " + Join(select_list, ", ") + " FROM " +
                    table->name;
  std::vector<std::string> predicates;
  for (const QbeRestriction& r : request.restrictions) {
    if (Trim(r.value).empty()) continue;
    EASIA_ASSIGN_OR_RETURN(const xuis::XuisColumn* col,
                           visible_column(r.column));
    EASIA_ASSIGN_OR_RETURN(auto literal,
                           RenderLiteral(*col, r.op, r.value));
    std::string op = literal.second ? "LIKE" : (r.op.empty() ? "=" : r.op);
    bool known = false;
    for (const std::string& allowed : QbeOperators()) {
      if (allowed == op) known = true;
    }
    if (!known) return Status::InvalidArgument("qbe: bad operator " + r.op);
    predicates.push_back(col->name + " " + op + " " + literal.first);
  }
  if (!predicates.empty()) {
    sql += " WHERE " + Join(predicates, " AND ");
  }
  if (!request.order_by.empty()) {
    EASIA_ASSIGN_OR_RETURN(const xuis::XuisColumn* col,
                           visible_column(request.order_by));
    sql += " ORDER BY " + col->name;
    if (request.descending) sql += " DESC";
  }
  if (request.limit >= 0) {
    sql += StrPrintf(" LIMIT %lld", static_cast<long long>(request.limit));
  }
  return sql;
}

Result<std::string> BrowseSql(const xuis::XuisSpec& spec,
                              const std::string& table,
                              const std::string& column,
                              const std::string& value) {
  const xuis::XuisTable* t = spec.FindTable(table);
  if (t == nullptr) return Status::NotFound("browse: unknown table " + table);
  if (t->hidden) {
    return Status::PermissionDenied("browse: table " + table +
                                    " is hidden from this interface");
  }
  const xuis::XuisColumn* col = t->FindColumn(column);
  if (col == nullptr) {
    return Status::NotFound("browse: unknown column " + column);
  }
  if (col->hidden) {
    return Status::PermissionDenied("browse: column " + column + " is hidden");
  }
  std::string literal;
  if (db::IsNumericType(col->type)) {
    EASIA_ASSIGN_OR_RETURN(double parsed, ParseDouble(value));
    (void)parsed;
    literal = std::string(Trim(value));
  } else {
    literal = "'" + ReplaceAll(value, "'", "''") + "'";
  }
  return "SELECT * FROM " + t->name + " WHERE " + col->name + " = " + literal;
}

}  // namespace easia::web
