#include "ops/engine.h"

#include <algorithm>
#include <cstdint>

#include "common/string_util.h"
#include "fileserver/url.h"
#include "ops/archive.h"
#include "turbulence/field.h"
#include "turbulence/tbf.h"
#include "xuis/serialize.h"

namespace easia::ops {

namespace {

/// A dataset staged for server-side execution.
struct Staged {
  fs::FileServer* server = nullptr;
  fs::FileUrl url;
  fs::FileStat stat;
};

/// The dataset a script runs over. Its bytes are read once and shared by
/// every host function; the tbf_* helpers parse them on first use and
/// reuse the Field, or the parse error, for the rest of the run.
struct ScriptDataset {
  std::string path;
  std::string bytes;
  std::optional<Result<turb::Field>> field;

  Result<const turb::Field*> LoadField(const script::ScriptValue& arg) {
    if (!arg.IsString() || arg.AsString() != path) {
      return Status::PermissionDenied(
          "sandbox: tbf_* functions accept only the dataset file");
    }
    if (!field.has_value()) field = turb::ParseTbf(bytes);
    if (!field->ok()) return field->status();
    return &field->value();
  }
};

/// A script number used as an index or extent. A negative, NaN or
/// too-large value is refused here, because its cast to size_t would be
/// undefined.
Result<size_t> ScriptSize(const script::ScriptValue& value,
                          const char* what) {
  double d = value.AsNumber();
  if (!(d >= 0 && d < static_cast<double>(SIZE_MAX))) {
    return Status::OutOfRange(StrPrintf("%s %g out of range", what, d));
  }
  return static_cast<size_t>(d);
}

std::string EscapeSqlString(const std::string& v) {
  return ReplaceAll(v, "'", "''");
}

std::string_view ConditionSqlOp(xuis::Condition::Op op) {
  switch (op) {
    case xuis::Condition::Op::kEq: return "=";
    case xuis::Condition::Op::kNe: return "<>";
    case xuis::Condition::Op::kLt: return "<";
    case xuis::Condition::Op::kGt: return ">";
    case xuis::Condition::Op::kLike: return "LIKE";
  }
  return "=";
}

}  // namespace

std::string_view ProgressStageName(ProgressEvent::Stage stage) {
  switch (stage) {
    case ProgressEvent::Stage::kResolvingCode:
      return "resolving-code";
    case ProgressEvent::Stage::kStaging:
      return "staging";
    case ProgressEvent::Stage::kExecuting:
      return "executing";
    case ProgressEvent::Stage::kCollectingOutputs:
      return "collecting-outputs";
    case ProgressEvent::Stage::kDone:
      return "done";
    case ProgressEvent::Stage::kFailed:
      return "failed";
  }
  return "?";
}

void OperationEngine::Emit(const InvocationContext& ctx,
                           ProgressEvent::Stage stage,
                           const std::string& operation,
                           const std::string& detail) const {
  ProgressListener global;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    global = progress_;
  }
  ProgressEvent event{stage, operation, detail};
  if (ctx.progress != nullptr) ctx.progress(event);
  if (global != nullptr) global(event);
}

void OperationEngine::RecordFailure(const std::string& stats_key) {
  std::lock_guard<std::mutex> lock(state_mu_);
  ++stats_[stats_key].failures;
}

OperationEngine::OperationEngine(db::Database* database,
                                 fs::FileServerFleet* fleet,
                                 sim::Network* network)
    : database_(database),
      fleet_(fleet),
      network_(network),
      natives_(NativeRegistry::BuiltIns()) {}

void OperationEngine::EvictOverCapacityLocked() {
  while (cache_index_.size() > cache_capacity_ && !cache_lru_.empty()) {
    ++stats_[cache_lru_.back().stats_key].cache_evictions;
    ++cache_evictions_;
    cache_index_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
  }
}

void OperationEngine::set_cache_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(state_mu_);
  cache_capacity_ = capacity;
  EvictOverCapacityLocked();
}

std::optional<OperationResult> OperationEngine::CacheLookup(
    const std::string& stats_key, const std::string& key) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!caching_) return std::nullopt;
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) return std::nullopt;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  OperationStats& stats = stats_[stats_key];
  ++stats.invocations;
  ++stats.cache_hits;
  OperationResult hit = cache_lru_.front().result;
  hit.cache_hit = true;
  return hit;
}

void OperationEngine::CacheInsert(const std::string& stats_key,
                                  const std::string& key,
                                  const OperationResult& result) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (cache_capacity_ == 0) return;
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    it->second->result = result;
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  if (cache_index_.size() >= cache_capacity_) {
    ++stats_[cache_lru_.back().stats_key].cache_evictions;
    ++cache_evictions_;
    cache_index_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
  }
  cache_lru_.push_front(CacheEntry{key, stats_key, result});
  cache_index_[key] = cache_lru_.begin();
}

std::string OperationEngine::CacheKey(const std::string& op_name,
                                      const std::string& dataset_url,
                                      const fs::HttpParams& params) const {
  std::string key = op_name;
  key += '|';
  // Strip any access token so cache hits survive token rotation.
  Result<fs::FileUrl> parsed = fs::ParseFileUrl(dataset_url);
  key += parsed.ok() ? parsed->host + parsed->path : dataset_url;
  for (const auto& [k, v] : params) {
    key += '|';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

Result<std::pair<std::string, std::string>> OperationEngine::FetchCode(
    const xuis::OperationLocation& location) {
  EASIA_ASSIGN_OR_RETURN(auto parts, xuis::SplitColid(location.result_colid));
  const std::string& table = parts.first;
  const std::string& column = parts.second;
  std::string sql = "SELECT " + column + " FROM " + table;
  if (!location.conditions.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < location.conditions.size(); ++i) {
      const xuis::Condition& cond = location.conditions[i];
      EASIA_ASSIGN_OR_RETURN(auto cond_parts, xuis::SplitColid(cond.colid));
      if (i > 0) sql += " AND ";
      sql += cond_parts.second;
      sql += " ";
      sql += ConditionSqlOp(cond.op);
      sql += " '";
      sql += EscapeSqlString(cond.value);
      sql += "'";
    }
  }
  db::ExecContext ctx;
  ctx.resolve_datalinks = false;  // internal fetch wants the raw URL
  EASIA_ASSIGN_OR_RETURN(db::QueryResult result, database_->Execute(sql, ctx));
  if (result.rows.empty()) {
    return Status::NotFound("operation code not found by query: " + sql);
  }
  if (result.rows.size() > 1) {
    return Status::FailedPrecondition(
        "operation code query matched multiple rows: " + sql);
  }
  const db::Value& value = result.rows[0][0];
  if (value.is_null()) {
    return Status::NotFound("operation code column is NULL");
  }
  std::string code_url = value.AsString();
  EASIA_ASSIGN_OR_RETURN(auto resolved, fleet_->Resolve(code_url));
  EASIA_ASSIGN_OR_RETURN(std::string bytes,
                         resolved.first->vfs().ReadFile(resolved.second.path));
  return std::make_pair(code_url, std::move(bytes));
}

Result<OperationResult> OperationEngine::FinishResult(
    const std::string& stats_key, OperationResult result,
    const std::string& cache_key) {
  result.output_bytes = result.output.TotalFileBytes();
  if (network_ != nullptr && !result.host.empty()) {
    EASIA_ASSIGN_OR_RETURN(
        double seconds,
        network_->ProcessingTime(result.host,
                                 result.input_bytes + result.output_bytes));
    result.exec_seconds = seconds;
  }
  bool cache_it;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    OperationStats& stats = stats_[stats_key];
    ++stats.invocations;
    stats.total_exec_seconds += result.exec_seconds;
    stats.total_input_bytes += result.input_bytes;
    stats.total_output_bytes += result.output_bytes;
    cache_it = caching_ && !cache_key.empty();
  }
  if (cache_it) {
    CacheInsert(stats_key, cache_key, result);
  }
  return result;
}

Result<OperationResult> OperationEngine::Invoke(const xuis::OperationSpec& op,
                                                const std::string& dataset_url,
                                                const fs::HttpParams& params,
                                                const InvocationContext& ctx) {
  std::lock_guard<std::mutex> lock(invoke_mu_);
  return InvokeSerialized(op, dataset_url, params, ctx);
}

Result<OperationResult> OperationEngine::InvokeSerialized(
    const xuis::OperationSpec& op, const std::string& dataset_url,
    const fs::HttpParams& params, const InvocationContext& ctx) {
  Emit(ctx, ProgressEvent::Stage::kExecuting, op.name, dataset_url);
  Result<OperationResult> result =
      InvokeInternal(op, dataset_url, params, ctx);
  if (result.ok()) {
    Emit(ctx, ProgressEvent::Stage::kDone, op.name,
         StrPrintf("%zu output files", result->output.files.size()));
  } else {
    Emit(ctx, ProgressEvent::Stage::kFailed, op.name,
         result.status().ToString());
  }
  return result;
}

Result<std::vector<OperationResult>> OperationEngine::InvokeChain(
    const std::vector<ChainStep>& steps, const std::string& dataset_url,
    const InvocationContext& ctx) {
  if (steps.empty()) {
    return Status::InvalidArgument("operation chain is empty");
  }
  std::lock_guard<std::mutex> lock(invoke_mu_);
  std::vector<OperationResult> results;
  std::string current = dataset_url;
  for (size_t i = 0; i < steps.size(); ++i) {
    const ChainStep& step = steps[i];
    if (step.op == nullptr) {
      return Status::InvalidArgument("chain step has no operation");
    }
    EASIA_ASSIGN_OR_RETURN(
        OperationResult result,
        InvokeSerialized(*step.op, current, step.params, ctx));
    results.push_back(std::move(result));
    if (i + 1 < steps.size()) {
      if (results.back().output_urls.empty()) {
        return Status::FailedPrecondition(
            "chain step '" + step.op->name +
            "' produced no output file to feed the next step");
      }
      // The intermediate product stays on the executing host's temp dir.
      current = results.back().output_urls[0];
    }
  }
  return results;
}

Result<OperationEngine::MultiResult> OperationEngine::InvokeMulti(
    const xuis::OperationSpec& op,
    const std::vector<std::string>& dataset_urls,
    const fs::HttpParams& params, const InvocationContext& ctx) {
  if (dataset_urls.empty()) {
    return Status::InvalidArgument("InvokeMulti: no datasets");
  }
  std::lock_guard<std::mutex> lock(invoke_mu_);
  MultiResult multi;
  std::map<std::string, double> per_host_seconds;
  for (const std::string& url : dataset_urls) {
    EASIA_ASSIGN_OR_RETURN(OperationResult result,
                           InvokeSerialized(op, url, params, ctx));
    per_host_seconds[result.host] += result.exec_seconds;
    multi.serial_seconds += result.exec_seconds;
    multi.results.push_back(std::move(result));
  }
  for (const auto& [host, seconds] : per_host_seconds) {
    double host_seconds = seconds;
    if (network_ != nullptr) {
      Result<sim::HostSpec> spec = network_->GetHost(host);
      if (spec.ok() && spec->parallel_slots > 1) {
        host_seconds /= static_cast<double>(spec->parallel_slots);
      }
    }
    multi.makespan_seconds = std::max(multi.makespan_seconds, host_seconds);
  }
  return multi;
}

Result<OperationResult> OperationEngine::InvokeInternal(
    const xuis::OperationSpec& op, const std::string& dataset_url,
    const fs::HttpParams& params, const InvocationContext& ctx) {
  if (ctx.is_guest && !op.guest_access) {
    RecordFailure(op.name);
    return Status::PermissionDenied("operation " + op.name +
                                    " is not available to guest users");
  }
  std::string cache_key = CacheKey(op.name, dataset_url, params);
  if (std::optional<OperationResult> hit = CacheLookup(op.name, cache_key)) {
    return *std::move(hit);
  }
  // Stage the dataset.
  EASIA_ASSIGN_OR_RETURN(auto resolved, fleet_->Resolve(dataset_url));
  Staged staged;
  staged.server = resolved.first;
  staged.url = resolved.second;
  EASIA_ASSIGN_OR_RETURN(staged.stat,
                         staged.server->vfs().Stat(staged.url.path));

  // Native (compiled-in) operations need no code fetch: the binary already
  // lives on every file-server host.
  if (EqualsIgnoreCase(op.type, "NATIVE")) {
    EASIA_ASSIGN_OR_RETURN(const NativeOperation* native,
                           natives_.Get(op.name));
    OperationResult result;
    result.host = staged.url.host;
    result.input_bytes = staged.stat.size;
    result.temp_dir = staged.server->MakeTempDir(ctx.session_id);
    if (staged.stat.sparse) {
      result.output.simulated = true;
      result.output.simulated_output_bytes =
          native->reduction_model(staged.stat.size);
      result.output.text = StrPrintf(
          "%s: simulated over sparse dataset (%llu bytes in, %llu out)\n",
          op.name.c_str(),
          static_cast<unsigned long long>(staged.stat.size),
          static_cast<unsigned long long>(
              result.output.simulated_output_bytes));
    } else {
      EASIA_ASSIGN_OR_RETURN(std::string dataset_bytes,
                             staged.server->vfs().ReadFile(staged.url.path));
      Result<OperationOutput> output = native->run(dataset_bytes, params);
      if (!output.ok()) {
        RecordFailure(op.name);
        return output.status();
      }
      result.output = std::move(*output);
    }
    for (const auto& [name, contents] : result.output.files) {
      std::string path = result.temp_dir + name;
      EASIA_RETURN_IF_ERROR(
          staged.server->vfs().WriteFile(path, contents, ctx.user));
      result.output_urls.push_back("http://" + staged.url.host + path);
    }
    return FinishResult(op.name, std::move(result), cache_key);
  }

  // URL operations: invoke the co-located service endpoint directly.
  if (op.location.kind == xuis::OperationLocation::Kind::kUrl) {
    EASIA_ASSIGN_OR_RETURN(fs::FileUrl endpoint,
                           fs::ParseFileUrl(op.location.url));
    EASIA_ASSIGN_OR_RETURN(fs::FileServer * endpoint_server,
                           fleet_->GetServer(endpoint.host));
    fs::HttpParams full_params = params;
    full_params["file"] = staged.url.path;
    EASIA_ASSIGN_OR_RETURN(
        std::string body,
        endpoint_server->InvokeEndpoint(endpoint.path, full_params));
    OperationResult result;
    result.host = endpoint.host;
    result.output.text = std::move(body);
    result.input_bytes = staged.stat.size;
    return FinishResult(op.name, std::move(result), cache_key);
  }

  // database.result operations: fetch the archived code.
  Emit(ctx, ProgressEvent::Stage::kResolvingCode, op.name,
       op.location.result_colid);
  EASIA_ASSIGN_OR_RETURN(auto code, FetchCode(op.location));
  const std::string& code_url = code.first;
  std::string& code_bytes = code.second;
  // Model shipping the (small) code file to the data's host.
  Result<fs::FileUrl> code_parsed = fs::ParseFileUrl(code_url);
  if (network_ != nullptr && code_parsed.ok() &&
      code_parsed->host != staged.url.host) {
    (void)network_->TransferAt(code_parsed->host, staged.url.host,
                               code_bytes.size(), network_->Now());
  }

  // Unpack the bundle (batch-file mechanism) and stage into a temp dir.
  std::map<std::string, std::string> bundle;
  if (IsPackedFormat(op.format)) {
    EASIA_ASSIGN_OR_RETURN(bundle, UnpackArchive(code_bytes));
  } else {
    bundle[op.filename.empty() ? "main.ea" : op.filename] = code_bytes;
  }
  std::string temp_dir = staged.server->MakeTempDir(ctx.session_id);
  Emit(ctx, ProgressEvent::Stage::kStaging, op.name, temp_dir);
  for (const auto& [name, contents] : bundle) {
    EASIA_RETURN_IF_ERROR(
        staged.server->vfs().WriteFile(temp_dir + name, contents, ctx.user));
  }

  OperationResult result;
  result.host = staged.url.host;
  result.temp_dir = temp_dir;
  result.code_bytes = code_bytes.size();
  result.input_bytes = staged.stat.size;

  if (EqualsIgnoreCase(op.type, "EASCRIPT") ||
      EqualsIgnoreCase(op.type, "JAVA")) {
    std::string entry = op.filename.empty() ? "main.ea" : op.filename;
    auto entry_it = bundle.find(entry);
    if (entry_it == bundle.end()) {
      RecordFailure(op.name);
      return Status::NotFound("bundle has no entry file " + entry);
    }
    Result<OperationResult> script_result =
        ExecuteScript(op.name, entry_it->second, dataset_url, params, ctx,
                      code_bytes.size());
    if (!script_result.ok()) {
      RecordFailure(op.name);
      return script_result.status();
    }
    script_result->temp_dir = temp_dir;
    result = std::move(*script_result);
  } else {
    RecordFailure(op.name);
    return Status::Unimplemented("unsupported operation type '" + op.type +
                                 "'");
  }

  // Materialise outputs in the temp dir and expose them as URLs.
  Emit(ctx, ProgressEvent::Stage::kCollectingOutputs, op.name, temp_dir);
  for (const auto& [name, contents] : result.output.files) {
    std::string path = temp_dir + name;
    EASIA_RETURN_IF_ERROR(
        staged.server->vfs().WriteFile(path, contents, ctx.user));
    result.output_urls.push_back("http://" + staged.url.host + path);
  }
  result.host = staged.url.host;
  result.temp_dir = temp_dir;
  result.input_bytes = staged.stat.size;
  result.code_bytes = code_bytes.size();
  return FinishResult(op.name, std::move(result), cache_key);
}

Result<OperationResult> OperationEngine::ExecuteScript(
    const std::string& stats_key, const std::string& source,
    const std::string& dataset_url, const fs::HttpParams& params,
    const InvocationContext& ctx, uint64_t code_bytes) {
  (void)ctx;
  EASIA_ASSIGN_OR_RETURN(auto resolved, fleet_->Resolve(dataset_url));
  fs::FileServer* server = resolved.first;
  const fs::FileUrl& url = resolved.second;
  EASIA_ASSIGN_OR_RETURN(fs::FileStat stat, server->vfs().Stat(url.path));
  if (stat.sparse) {
    return Status::FailedPrecondition(
        "uploaded code cannot run over a sparse (simulated) dataset");
  }
  auto dataset = std::make_shared<ScriptDataset>();
  dataset->path = url.path;
  EASIA_ASSIGN_OR_RETURN(dataset->bytes, server->vfs().ReadFile(url.path));

  // Sandboxed host functions: the script sees exactly the dataset file and
  // a write-only relative-name output surface (the paper's temp dir).
  auto written = std::make_shared<std::vector<std::pair<std::string,
                                                        std::string>>>();
  script::Interpreter interp(sandbox_limits_);
  using script::ScriptValue;
  interp.RegisterFunction(
      "read", [dataset, written](
                  std::vector<ScriptValue>& args) -> Result<ScriptValue> {
        if (args.size() != 1 || !args[0].IsString()) {
          return Status::InvalidArgument("read(name) expects a string");
        }
        const std::string& name = args[0].AsString();
        if (name == dataset->path) return ScriptValue::Str(dataset->bytes);
        for (const auto& [n, bytes] : *written) {
          if (n == name) return ScriptValue::Str(bytes);
        }
        return Status::PermissionDenied("sandbox: cannot read " + name);
      });
  interp.RegisterFunction(
      "write", [written](std::vector<ScriptValue>& args)
                   -> Result<ScriptValue> {
        if (args.size() != 2 || !args[0].IsString() || !args[1].IsString()) {
          return Status::InvalidArgument("write(name, data) expects strings");
        }
        const std::string& name = args[0].AsString();
        if (name.empty() || name.find('/') != std::string::npos ||
            name.find("..") != std::string::npos) {
          return Status::PermissionDenied(
              "sandbox: output names must be relative file names: " + name);
        }
        for (auto& [n, bytes] : *written) {
          if (n == name) {
            bytes = args[1].AsString();
            return ScriptValue::Null();
          }
        }
        written->emplace_back(name, args[1].AsString());
        return ScriptValue::Null();
      });
  // TBF helpers so uploaded codes can post-process without re-implementing
  // the format byte-by-byte.
  interp.RegisterFunction(
      "tbf_n", [dataset](std::vector<ScriptValue>& args)
                   -> Result<ScriptValue> {
        if (args.size() != 1) {
          return Status::InvalidArgument("tbf_n(file)");
        }
        EASIA_ASSIGN_OR_RETURN(const turb::Field* field,
                               dataset->LoadField(args[0]));
        return ScriptValue::Number(static_cast<double>(field->n()));
      });
  interp.RegisterFunction(
      "tbf_slice",
      [dataset](std::vector<ScriptValue>& args) -> Result<ScriptValue> {
        if (args.size() != 4 || !args[1].IsString() || !args[2].IsNumber() ||
            !args[3].IsString()) {
          return Status::InvalidArgument(
              "tbf_slice(file, axis, index, component)");
        }
        EASIA_ASSIGN_OR_RETURN(const turb::Field* field,
                               dataset->LoadField(args[0]));
        EASIA_ASSIGN_OR_RETURN(turb::Component comp,
                               turb::ComponentFromName(args[3].AsString()));
        if (args[1].AsString().empty()) {
          return Status::InvalidArgument("empty slice axis");
        }
        EASIA_ASSIGN_OR_RETURN(size_t index,
                               ScriptSize(args[2], "slice index"));
        EASIA_ASSIGN_OR_RETURN(
            turb::Slice2D slice,
            field->Slice(args[1].AsString()[0], index, comp));
        std::vector<ScriptValue> values;
        values.reserve(slice.values.size());
        for (double v : slice.values) values.push_back(ScriptValue::Number(v));
        return ScriptValue::ArrayOf(std::move(values));
      });
  interp.RegisterFunction(
      "tbf_stats",
      [dataset](std::vector<ScriptValue>& args) -> Result<ScriptValue> {
        if (args.size() != 2 || !args[1].IsString()) {
          return Status::InvalidArgument("tbf_stats(file, component)");
        }
        EASIA_ASSIGN_OR_RETURN(const turb::Field* field,
                               dataset->LoadField(args[0]));
        EASIA_ASSIGN_OR_RETURN(turb::Component comp,
                               turb::ComponentFromName(args[1].AsString()));
        turb::FieldStats s = field->Stats(comp);
        return ScriptValue::ArrayOf({ScriptValue::Number(s.min),
                                     ScriptValue::Number(s.max),
                                     ScriptValue::Number(s.mean),
                                     ScriptValue::Number(s.rms)});
      });
  interp.RegisterFunction(
      "pgm", [](std::vector<ScriptValue>& args) -> Result<ScriptValue> {
        if (args.size() != 3 || !args[0].IsArray() || !args[1].IsNumber() ||
            !args[2].IsNumber()) {
          return Status::InvalidArgument("pgm(values, rows, cols)");
        }
        EASIA_ASSIGN_OR_RETURN(size_t rows, ScriptSize(args[1], "pgm rows"));
        EASIA_ASSIGN_OR_RETURN(size_t cols, ScriptSize(args[2], "pgm cols"));
        const auto& arr = args[0].AsArray();
        size_t cells = 0;
        if (__builtin_mul_overflow(rows, cols, &cells) ||
            cells != arr.size()) {
          return Status::InvalidArgument("pgm: dimensions mismatch");
        }
        turb::Slice2D slice;
        slice.n1 = rows;
        slice.n2 = cols;
        slice.values.reserve(arr.size());
        for (const ScriptValue& v : arr) {
          if (!v.IsNumber()) {
            return Status::InvalidArgument("pgm: non-numeric value");
          }
          slice.values.push_back(v.AsNumber());
        }
        return ScriptValue::Str(slice.ToPgm());
      });
  // param("name") fetches a form parameter.
  interp.RegisterFunction(
      "param", [params](std::vector<ScriptValue>& args)
                   -> Result<ScriptValue> {
        if (args.size() != 1 || !args[0].IsString()) {
          return Status::InvalidArgument("param(name)");
        }
        auto it = params.find(args[0].AsString());
        if (it == params.end()) return ScriptValue::Null();
        return ScriptValue::Str(it->second);
      });

  // Paper convention: first command-line parameter is the dataset filename.
  std::vector<std::string> args;
  args.push_back(url.path);
  for (const auto& [k, v] : params) args.push_back(k + "=" + v);

  Result<script::ExecutionResult> run = interp.Run(source, args);
  if (!run.ok()) return run.status();

  OperationResult result;
  result.host = url.host;
  result.input_bytes = stat.size;
  result.code_bytes = code_bytes;
  result.script_steps = run->steps_used;
  result.output.text = run->output;
  result.output.files = std::move(*written);
  (void)stats_key;
  return result;
}

Result<OperationResult> OperationEngine::RunUploadedCode(
    const xuis::UploadSpec& upload, const std::string& packaged_code,
    const std::string& entry_filename, const std::string& dataset_url,
    const fs::HttpParams& params, const InvocationContext& ctx) {
  const std::string stats_key = "upload:" + entry_filename;
  std::lock_guard<std::mutex> lock(invoke_mu_);
  if (ctx.is_guest && !upload.guest_access) {
    RecordFailure(stats_key);
    return Status::PermissionDenied(
        "code upload is not available to guest users");
  }
  std::map<std::string, std::string> bundle;
  if (IsPackedFormat(upload.format)) {
    EASIA_ASSIGN_OR_RETURN(bundle, UnpackArchive(packaged_code));
  } else {
    bundle[entry_filename] = packaged_code;
  }
  auto entry_it = bundle.find(entry_filename);
  if (entry_it == bundle.end()) {
    RecordFailure(stats_key);
    return Status::NotFound("uploaded bundle has no entry file " +
                            entry_filename);
  }
  // Stage into a temp dir on the dataset host, run sandboxed.
  EASIA_ASSIGN_OR_RETURN(auto resolved, fleet_->Resolve(dataset_url));
  std::string temp_dir = resolved.first->MakeTempDir(ctx.session_id);
  for (const auto& [name, contents] : bundle) {
    EASIA_RETURN_IF_ERROR(resolved.first->vfs().WriteFile(temp_dir + name,
                                                          contents, ctx.user));
  }
  Result<OperationResult> result =
      ExecuteScript(stats_key, entry_it->second, dataset_url, params, ctx,
                    packaged_code.size());
  if (!result.ok()) {
    RecordFailure(stats_key);
    return result.status();
  }
  result->temp_dir = temp_dir;
  for (const auto& [name, contents] : result->output.files) {
    std::string path = temp_dir + name;
    EASIA_RETURN_IF_ERROR(
        resolved.first->vfs().WriteFile(path, contents, ctx.user));
    result->output_urls.push_back("http://" + resolved.second.host + path);
  }
  return FinishResult(stats_key, std::move(*result), "");
}

}  // namespace easia::ops
