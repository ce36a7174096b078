#include "html/forms.h"

#include <map>

#include "util/strings.h"

namespace deepsurf {
namespace html {

const char* FieldKindToString(FieldKind kind) {
  switch (kind) {
    case FieldKind::kText:
      return "text";
    case FieldKind::kHidden:
      return "hidden";
    case FieldKind::kSelect:
      return "select";
    case FieldKind::kCheckbox:
      return "checkbox";
    case FieldKind::kRadio:
      return "radio";
    case FieldKind::kSubmit:
      return "submit";
    case FieldKind::kPassword:
      return "password";
    case FieldKind::kOther:
      return "other";
  }
  return "other";
}

std::vector<const FormField*> Form::UserFields() const {
  std::vector<const FormField*> out;
  for (const auto& f : fields) {
    if (f.kind == FieldKind::kHidden || f.kind == FieldKind::kSubmit ||
        f.kind == FieldKind::kOther || f.kind == FieldKind::kPassword) {
      continue;
    }
    out.push_back(&f);
  }
  return out;
}

const FormField* Form::FindField(const std::string& name) const {
  for (const auto& f : fields) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

namespace {

FieldKind ClassifyInput(const Node& input) {
  std::string type = strings::ToLower(input.GetAttr("type"));
  if (type.empty() || type == "text" || type == "search") {
    return FieldKind::kText;
  }
  if (type == "hidden") return FieldKind::kHidden;
  if (type == "checkbox") return FieldKind::kCheckbox;
  if (type == "radio") return FieldKind::kRadio;
  if (type == "submit" || type == "button") return FieldKind::kSubmit;
  if (type == "password") return FieldKind::kPassword;
  return FieldKind::kOther;
}

/// Collects id -> label text for <label for=...> elements in the document.
std::map<std::string, std::string> CollectForLabels(const Node& root) {
  std::map<std::string, std::string> out;
  for (const Node* label : root.Descendants("label")) {
    std::string_view target = label->GetAttr("for");
    if (!target.empty()) out[std::string(target)] = label->InnerText();
  }
  return out;
}

/// Walks `node`'s subtree in document order up to `control`, keeping the
/// last non-blank text seen in `last`. Returns true once it reaches
/// `control`.
bool TextBefore(const Node* node, const Node* control, std::string* last) {
  if (node == control) return true;
  if (node->is_text()) {
    auto trimmed = strings::Trim(node->text());
    if (!trimmed.empty()) *last = std::string(trimmed);
    return false;
  }
  for (const Node* child : node->children()) {
    if (TextBefore(child, control, last)) return true;
  }
  return false;
}

/// Nearest preceding text within the control's table row or parent block —
/// the convention of layout-table forms ("Price: <input ...>").
std::string PrecedingText(const Node* control) {
  const Node* scope = control->Ancestor("tr");
  if (scope == nullptr) scope = control->parent();
  if (scope == nullptr) return "";
  std::string last;
  if (!TextBefore(scope, control, &last)) return "";
  // Strip a trailing ':' from "Label:" conventions.
  while (!last.empty() && (last.back() == ':' || last.back() == ' ')) {
    last.pop_back();
  }
  return last;
}

std::string LabelFor(const Node* control,
                     const std::map<std::string, std::string>& for_labels) {
  std::string id(control->GetAttr("id"));
  if (!id.empty()) {
    auto it = for_labels.find(id);
    if (it != for_labels.end()) return it->second;
  }
  if (const Node* wrap = control->Ancestor("label")) {
    return wrap->InnerText();
  }
  return PrecedingText(control);
}

}  // namespace

std::vector<Form> ExtractForms(const Node& root) {
  std::vector<Form> forms;
  auto for_labels = CollectForLabels(root);
  for (const Node* form_el : root.Descendants("form")) {
    Form form;
    form.action = form_el->GetAttr("action");
    std::string method = strings::ToLower(form_el->GetAttr("method"));
    form.method = (method == "post") ? "post" : "get";

    // Radio groups merge into one field keyed by name.
    std::map<std::string, size_t> radio_index;

    auto add_option_to_radio = [&](const Node* input, FormField* field) {
      FieldOption opt;
      opt.value = input->GetAttr("value");
      opt.label = LabelFor(input, for_labels);
      opt.selected = input->HasAttr("checked");
      field->options.push_back(std::move(opt));
    };

    for (const Node* el : form_el->Descendants("")) {
      if (el->tag() == "input") {
        FieldKind kind = ClassifyInput(*el);
        if (kind == FieldKind::kRadio) {
          std::string name(el->GetAttr("name"));
          auto it = radio_index.find(name);
          if (it != radio_index.end()) {
            add_option_to_radio(el, &form.fields[it->second]);
            continue;
          }
          FormField field;
          field.name = name;
          field.kind = FieldKind::kRadio;
          field.id = el->GetAttr("id");
          field.label = LabelFor(el, for_labels);
          add_option_to_radio(el, &field);
          radio_index[name] = form.fields.size();
          form.fields.push_back(std::move(field));
          continue;
        }
        FormField field;
        field.name = el->GetAttr("name");
        field.kind = kind;
        field.default_value = el->GetAttr("value");
        field.id = el->GetAttr("id");
        field.label = LabelFor(el, for_labels);
        form.fields.push_back(std::move(field));
      } else if (el->tag() == "select") {
        FormField field;
        field.name = el->GetAttr("name");
        field.kind = FieldKind::kSelect;
        field.id = el->GetAttr("id");
        field.label = LabelFor(el, for_labels);
        for (const Node* opt_el : el->Descendants("option")) {
          FieldOption opt;
          opt.label = opt_el->InnerText();
          opt.value = opt_el->HasAttr("value")
                          ? opt_el->GetAttr("value")
                          : std::string_view(opt.label);
          opt.selected = opt_el->HasAttr("selected");
          field.options.push_back(std::move(opt));
        }
        if (!field.options.empty()) {
          field.default_value = field.options.front().value;
          for (const auto& o : field.options) {
            if (o.selected) field.default_value = o.value;
          }
        }
        form.fields.push_back(std::move(field));
      } else if (el->tag() == "textarea") {
        FormField field;
        field.name = el->GetAttr("name");
        field.kind = FieldKind::kText;
        field.default_value = el->InnerText();
        field.id = el->GetAttr("id");
        field.label = LabelFor(el, for_labels);
        form.fields.push_back(std::move(field));
      } else if (el->tag() == "button") {
        FormField field;
        field.name = el->GetAttr("name");
        field.kind = FieldKind::kSubmit;
        field.default_value = el->GetAttr("value");
        field.id = el->GetAttr("id");
        form.fields.push_back(std::move(field));
      }
    }
    forms.push_back(std::move(form));
  }
  return forms;
}

}  // namespace html
}  // namespace deepsurf
