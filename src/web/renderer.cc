#include "web/renderer.h"

#include <optional>

#include "common/string_util.h"
#include "fileserver/url.h"
#include "web/html.h"

namespace easia::web {

namespace {

/// Looks up the substitute display value for an FK cell (e.g. AUTHOR.NAME
/// for an AUTHOR_KEY). Falls back to the raw key on any miss.
std::string FkDisplayValue(const RenderContext& ctx, const xuis::FkSpec& fk,
                           const std::string& raw_value) {
  if (fk.subst_column.empty() || !ctx.query) return raw_value;
  Result<std::pair<std::string, std::string>> target =
      xuis::SplitColid(fk.table_column);
  Result<std::pair<std::string, std::string>> subst =
      xuis::SplitColid(fk.subst_column);
  if (!target.ok() || !subst.ok()) return raw_value;
  std::string sql = "SELECT " + subst->second + " FROM " + subst->first +
                    " WHERE " + target->second + " = '" +
                    ReplaceAll(raw_value, "'", "''") + "'";
  db::ExecContext exec;
  exec.resolve_datalinks = false;
  Result<db::QueryResult> r = ctx.query(sql, exec);
  if (!r.ok() || r->rows.empty() || r->rows[0][0].is_null()) return raw_value;
  return r->rows[0][0].ToDisplayString();
}

/// Size text for a DATALINK target ("hypertext link displays size of
/// object").
std::string DatalinkSizeText(const RenderContext& ctx,
                             const std::string& url) {
  if (ctx.fleet == nullptr) return "";
  Result<fs::FileUrl> parsed = fs::ParseFileUrl(url);
  if (!parsed.ok()) return "";
  Result<fs::FileServer*> server = ctx.fleet->GetServer(parsed->host);
  if (!server.ok()) return "";
  Result<fs::FileStat> stat = (*server)->StatFile(parsed->path);
  if (!stat.ok()) return "";
  return " (" + HumanBytes(stat->size) + ")";
}

}  // namespace

Result<std::string> RenderResultTable(const db::QueryResult& result,
                                      const RenderContext& ctx) {
  if (ctx.spec == nullptr || ctx.table == nullptr) {
    return Status::InvalidArgument("renderer: missing spec/table context");
  }
  const xuis::XuisTable& table = *ctx.table;
  // Column metadata for each output column (null when synthetic).
  std::vector<const xuis::XuisColumn*> columns;
  for (const std::string& name : result.column_names) {
    columns.push_back(table.FindColumn(name));
  }
  // Whether any column carries operations or uploads (adds a cell).
  bool any_ops = false;
  for (const xuis::XuisColumn* col : columns) {
    if (col != nullptr &&
        (!col->operations.empty() || !col->chains.empty() ||
         col->upload.has_value())) {
      any_ops = true;
    }
  }

  HtmlWriter w;
  w.Raw(PageHeader("Results from " + table.DisplayName()));
  w.Open("table", {{"border", "1"}});
  w.Open("tr");
  for (size_t c = 0; c < result.column_names.size(); ++c) {
    w.Element("th", columns[c] != nullptr ? columns[c]->DisplayName()
                                          : result.column_names[c]);
  }
  if (any_ops) w.Element("th", "Operations");
  w.Close();  // tr

  for (size_t r = 0; r < result.rows.size(); ++r) {
    const db::Row& row = result.rows[r];
    // Row-cell accessor for operation guards (colid -> display value).
    auto cell_of =
        [&](const std::string& colid) -> std::optional<std::string> {
      Result<std::pair<std::string, std::string>> parts =
          xuis::SplitColid(colid);
      if (!parts.ok() || !EqualsIgnoreCase(parts->first, table.name)) {
        return std::nullopt;
      }
      for (size_t c = 0; c < result.column_names.size(); ++c) {
        if (EqualsIgnoreCase(result.column_names[c], parts->second)) {
          return row[c].ToDisplayString();
        }
      }
      return std::nullopt;
    };
    w.Open("tr");
    for (size_t c = 0; c < row.size(); ++c) {
      w.Open("td");
      const db::Value& value = row[c];
      const xuis::XuisColumn* col = columns[c];
      if (value.is_null()) {
        w.Text("-");
        w.Close();
        continue;
      }
      std::string display = value.ToDisplayString();
      if (col == nullptr) {
        w.Text(display);
        w.Close();
        continue;
      }
      switch (value.type()) {
        case db::DataType::kBlob:
        case db::DataType::kClob: {
          // Rematerialisation link keyed by the row's primary key.
          std::map<std::string, std::string> params = {
              {"table", table.name}, {"column", col->name}};
          size_t pk_index = 0;
          for (const xuis::XuisColumn& pk_col : table.columns) {
            if (!pk_col.is_primary_key) continue;
            std::optional<std::string> pk_value = cell_of(pk_col.colid);
            if (pk_value.has_value()) {
              params[StrPrintf("pk%zu.%s", pk_index, pk_col.name.c_str())] =
                  *pk_value;
            }
            ++pk_index;
          }
          std::string label =
              (value.type() == db::DataType::kClob)
                  ? StrPrintf("<clob %zu bytes>", value.AsString().size())
                  : StrPrintf("<blob %zu bytes>", value.AsString().size());
          w.Link(BuildUrl("/object", params), label);
          break;
        }
        case db::DataType::kDatalink: {
          Result<fs::FileUrl> parsed = fs::ParseFileUrl(display);
          std::string label =
              (parsed.ok() ? parsed->filename : display) +
              DatalinkSizeText(ctx, display);
          if (ctx.is_guest) {
            // Guests see the file but get no download link (no token).
            w.Text(label);
          } else {
            w.Link(display, label);
          }
          break;
        }
        default: {
          bool linked = false;
          if (col->fk.has_value()) {
            Result<std::pair<std::string, std::string>> target =
                xuis::SplitColid(col->fk->table_column);
            if (target.ok()) {
              std::string text =
                  FkDisplayValue(ctx, *col->fk, display);
              w.Link(BuildUrl("/browse", {{"table", target->first},
                                          {"column", target->second},
                                          {"value", display}}),
                     text);
              linked = true;
            }
          } else if (col->is_primary_key && !col->referenced_by.empty()) {
            w.Text(display);
            for (const std::string& ref : col->referenced_by) {
              Result<std::pair<std::string, std::string>> target =
                  xuis::SplitColid(ref);
              if (!target.ok()) continue;
              w.Text(" ");
              w.Link(BuildUrl("/browse", {{"table", target->first},
                                          {"column", target->second},
                                          {"value", display}}),
                     "[" + target->first + "]");
            }
            linked = true;
          }
          if (!linked) w.Text(display);
        }
      }
      w.Close();  // td
    }
    if (any_ops) {
      w.Open("td");
      bool first = true;
      for (size_t c = 0; c < row.size(); ++c) {
        const xuis::XuisColumn* col = columns[c];
        if (col == nullptr || row[c].is_null()) continue;
        for (const xuis::OperationSpec& op : col->operations) {
          if (ctx.is_guest && !op.guest_access) continue;
          if (!op.AppliesTo(cell_of)) continue;
          if (!first) w.Text(" | ");
          first = false;
          w.Link(BuildUrl("/opform", {{"op", op.name},
                                      {"table", table.name},
                                      {"column", col->name},
                                      {"dataset", row[c].ToDisplayString()}}),
                 op.name);
        }
        for (const xuis::OperationChainSpec& chain : col->chains) {
          if (ctx.is_guest && !chain.guest_access) continue;
          if (!first) w.Text(" | ");
          first = false;
          w.Link(BuildUrl("/runchain",
                          {{"chain", chain.name},
                           {"dataset", row[c].ToDisplayString()}}),
                 chain.name + " (chain)");
        }
        if (col->upload.has_value() &&
            (!ctx.is_guest || col->upload->guest_access)) {
          bool allowed = true;
          for (const xuis::Condition& cond : col->upload->conditions) {
            std::optional<std::string> cell = cell_of(cond.colid);
            if (!cell.has_value() || !cond.Matches(*cell)) allowed = false;
          }
          if (allowed) {
            if (!first) w.Text(" | ");
            first = false;
            w.Link(BuildUrl("/upload", {{"table", table.name},
                                        {"column", col->name},
                                        {"dataset",
                                         row[c].ToDisplayString()}}),
                   "Upload code");
          }
        }
      }
      if (first) w.Text("-");
      w.Close();  // td
    }
    w.Close();  // tr
  }
  w.Close();  // table
  w.Element("p", StrPrintf("%zu rows", result.rows.size()));
  w.Raw(PageFooter());
  return w.Finish();
}

std::string RenderOperationForm(const xuis::OperationSpec& op,
                                const std::string& dataset_url) {
  HtmlWriter w;
  w.Raw(PageHeader("Operation: " + op.name));
  if (!op.description.empty()) w.Element("p", op.description);
  w.Open("form", {{"action", "/runop"}, {"method", "post"}});
  w.Void("input",
         {{"type", "hidden"}, {"name", "op"}, {"value", op.name}});
  w.Void("input",
         {{"type", "hidden"}, {"name", "dataset"}, {"value", dataset_url}});
  for (const xuis::ParamSpec& param : op.parameters) {
    w.Open("p");
    if (!param.description.empty()) w.Element("b", param.description);
    w.Void("br");
    switch (param.control) {
      case xuis::ParamSpec::Control::kSelect: {
        HtmlWriter::Attrs attrs = {{"name", param.name}};
        if (param.select_size > 0) {
          attrs.push_back({"size", StrPrintf("%d", param.select_size)});
        }
        w.Open("select", attrs);
        for (const xuis::ParamSpec::Option& opt : param.options) {
          w.Element("option", opt.label, {{"value", opt.value}});
        }
        w.Close();
        break;
      }
      case xuis::ParamSpec::Control::kRadio:
        for (const xuis::ParamSpec::Option& opt : param.options) {
          w.Void("input", {{"type", "radio"},
                           {"name", param.name},
                           {"value", opt.value}});
          w.Text(opt.label);
          w.Void("br");
        }
        break;
      case xuis::ParamSpec::Control::kText: {
        HtmlWriter::Attrs attrs = {{"type", "text"}, {"name", param.name}};
        if (!param.default_value.empty()) {
          attrs.push_back({"value", param.default_value});
        }
        w.Void("input", attrs);
        break;
      }
    }
    w.Close();  // p
  }
  w.Void("input", {{"type", "submit"}, {"value", "Run " + op.name}});
  w.Close();  // form
  w.Raw(PageFooter());
  return w.Finish();
}

}  // namespace easia::web
