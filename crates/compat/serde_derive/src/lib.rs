//! `#[derive(Serialize, Deserialize)]` for the in-workspace serde stand-in.
//!
//! Implemented directly on `proc_macro` token trees (the build environment
//! has no `syn`/`quote`). Supports the shapes this workspace uses:
//!
//! * structs with named fields,
//! * tuple structs (serialized as the inner value when 1-field, else an
//!   array),
//! * unit structs,
//! * enums whose variants are unit, newtype, tuple, or struct-like
//!   (serde's externally tagged representation).
//!
//! No `#[serde(..)]` attributes are supported: every field is written, and
//! a field absent on decode is an error unless its type is `Option`.
//!
//! Generics are not supported; deriving on a generic type is a compile
//! error. Generated code never names field types — it relies on inference
//! through `serde::__field` and `serde::Deserialize::deserialize`, which
//! keeps the parser to "names and arities" only.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
}

enum VariantFields {
    Unit,
    Named(Vec<Field>),
    Tuple(usize),
}

struct Variant {
    name: String,
    fields: VariantFields,
}

enum Kind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    kind: Kind,
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Skips attributes (`#[...]`, including doc comments) starting at `i`.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len() {
        match (&tokens[i], &tokens[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Skips a visibility qualifier (`pub`, `pub(crate)`, ...) starting at `i`.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Counts top-level (angle-depth 0) comma-separated items in a token list.
/// Groups are atomic tokens, so only `<`/`>` need depth tracking.
fn count_top_level_items(tokens: &[TokenTree]) -> usize {
    let mut depth = 0i32;
    let mut items = 0usize;
    let mut has_content = false;
    for t in tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                has_content = true;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                has_content = true;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                items += 1;
                has_content = false;
            }
            _ => has_content = true,
        }
    }
    if has_content {
        items += 1;
    }
    items
}

/// Parses `name: Type, ...` named-field lists (types are skipped).
fn parse_named_fields(group: &[TokenTree]) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < group.len() {
        i = skip_attrs(group, i);
        if i >= group.len() {
            break;
        }
        i = skip_vis(group, i);
        let name = match group.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match group.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        // Skip the type: consume until a comma at angle-depth 0.
        let mut depth = 0i32;
        while i < group.len() {
            match &group[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        i += 1; // past the comma (or end)
        fields.push(Field { name });
    }
    Ok(fields)
}

/// Parses enum variants.
fn parse_variants(group: &[TokenTree]) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < group.len() {
        i = skip_attrs(group, i);
        if i >= group.len() {
            break;
        }
        let name = match group.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let fields = match group.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                VariantFields::Named(parse_named_fields(&inner)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                VariantFields::Tuple(count_top_level_items(&inner))
            }
            _ => VariantFields::Unit,
        };
        match group.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                return Err(format!(
                    "discriminants are not supported (variant `{name}`)"
                ))
            }
            other => {
                return Err(format!(
                    "expected `,` after variant `{name}`, found {other:?}"
                ))
            }
        }
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs(&tokens, 0);
    i = skip_vis(&tokens, i);
    let is_enum = match tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => false,
        Some(TokenTree::Ident(id)) if id.to_string() == "enum" => true,
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "derive on generic type `{name}` is not supported by the in-workspace serde"
            ));
        }
    }
    let kind = if is_enum {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Kind::Enum(parse_variants(&inner)?)
            }
            other => return Err(format!("expected enum body, found {other:?}")),
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Kind::NamedStruct(parse_named_fields(&inner)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Kind::TupleStruct(count_top_level_items(&inner))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::UnitStruct,
            other => return Err(format!("expected struct body, found {other:?}")),
        }
    };
    Ok(Input { name, kind })
}

fn named_fields_to_value(fields: &[Field], access_prefix: &str) -> String {
    let mut out = String::from("{ let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new(); ");
    for f in fields {
        let n = &f.name;
        out.push_str(&format!(
            "__fields.push((::std::string::ToString::to_string({n:?}), ::serde::Serialize::serialize(&{access_prefix}{n}))); "
        ));
    }
    out.push_str("::serde::Value::Map(__fields) }");
    out
}

fn named_fields_from_map(ty: &str, fields: &[Field], map_expr: &str) -> String {
    let mut out = format!("{{ let __map = {map_expr}; Ok({ty} {{ ");
    for f in fields {
        let n = &f.name;
        out.push_str(&format!("{n}: ::serde::__field(__map, {n:?})?, "));
    }
    out.push_str("}) }");
    out
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = match parse_input(input) {
        Ok(i) => i,
        Err(e) => return compile_error(&e),
    };
    let name = &input.name;
    let body = match &input.kind {
        Kind::NamedStruct(fields) => named_fields_to_value(fields, "self."),
        Kind::UnitStruct => "::serde::Value::Null".to_string(),
        Kind::TupleStruct(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    VariantFields::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::Str(::std::string::ToString::to_string({vn:?})), "
                    )),
                    VariantFields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::serialize(__f0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b})"))
                                .collect();
                            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vn}({binds}) => ::serde::Value::Map(::std::vec![(::std::string::ToString::to_string({vn:?}), {inner})]), ",
                            binds = binds.join(", ")
                        ));
                    }
                    VariantFields::Named(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| f.name.clone()).collect();
                        let inner = named_fields_to_value(fields, "*");
                        // Bound names are references; `*` deref in the
                        // prefix gives `&**` via auto-ref — serialize takes
                        // them by reference anyway, so bind and pass as-is.
                        let inner = inner.replace("&*", "");
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => ::serde::Value::Map(::std::vec![(::std::string::ToString::to_string({vn:?}), {inner})]), ",
                            binds = binds.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
             fn serialize(&self) -> ::serde::Value {{ {body} }} \
         }}"
    )
    .parse()
    .unwrap()
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = match parse_input(input) {
        Ok(i) => i,
        Err(e) => return compile_error(&e),
    };
    let name = &input.name;
    let body = match &input.kind {
        Kind::NamedStruct(fields) => {
            let build = named_fields_from_map(
                name,
                fields,
                &format!(
                    "__v.as_map().ok_or_else(|| ::serde::Error::custom(\
                         format!(\"expected object for {name}, got {{}}\", __v.kind())))?"
                ),
            );
            build
        }
        Kind::UnitStruct => format!("{{ let _ = __v; Ok({name}) }}"),
        Kind::TupleStruct(1) => {
            format!("Ok({name}(::serde::Deserialize::deserialize(__v)?))")
        }
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::deserialize(&__seq[{i}])?"))
                .collect();
            format!(
                "{{ let __seq = __v.as_seq().ok_or_else(|| ::serde::Error::custom(\"expected array for {name}\"))?; \
                   if __seq.len() != {n} {{ return Err(::serde::Error::custom(\"wrong tuple arity for {name}\")); }} \
                   Ok({name}({items})) }}",
                items = items.join(", ")
            )
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    VariantFields::Unit => {
                        unit_arms.push_str(&format!("{vn:?} => Ok({name}::{vn}), "));
                        // Also accept the map form `{"Variant": null}`.
                        data_arms.push_str(&format!("{vn:?} => Ok({name}::{vn}), "));
                    }
                    VariantFields::Tuple(n) => {
                        let build = if *n == 1 {
                            format!("Ok({name}::{vn}(::serde::Deserialize::deserialize(__inner)?))")
                        } else {
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Deserialize::deserialize(&__seq[{i}])?"))
                                .collect();
                            format!(
                                "{{ let __seq = __inner.as_seq().ok_or_else(|| ::serde::Error::custom(\"expected array for {name}::{vn}\"))?; \
                                   if __seq.len() != {n} {{ return Err(::serde::Error::custom(\"wrong arity for {name}::{vn}\")); }} \
                                   Ok({name}::{vn}({items})) }}",
                                items = items.join(", ")
                            )
                        };
                        data_arms.push_str(&format!("{vn:?} => {build}, "));
                    }
                    VariantFields::Named(fields) => {
                        let build = named_fields_from_map(
                            &format!("{name}::{vn}"),
                            fields,
                            &format!(
                                "__inner.as_map().ok_or_else(|| ::serde::Error::custom(\
                                     \"expected object for {name}::{vn}\"))?"
                            ),
                        );
                        data_arms.push_str(&format!("{vn:?} => {build}, "));
                    }
                }
            }
            format!(
                "match __v {{ \
                     ::serde::Value::Str(__s) => match __s.as_str() {{ \
                         {unit_arms} \
                         __other => Err(::serde::Error::custom(format!(\"unknown {name} variant `{{__other}}`\"))), \
                     }}, \
                     ::serde::Value::Map(__m) if __m.len() == 1 => {{ \
                         let (__tag, __inner) = &__m[0]; \
                         let _ = __inner; \
                         match __tag.as_str() {{ \
                             {data_arms} \
                             __other => Err(::serde::Error::custom(format!(\"unknown {name} variant `{{__other}}`\"))), \
                         }} \
                     }}, \
                     __other => Err(::serde::Error::custom(format!(\"expected {name} enum, got {{}}\", __other.kind()))), \
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
             fn deserialize(__v: &::serde::Value) -> ::core::result::Result<{name}, ::serde::Error> {{ {body} }} \
         }}"
    )
    .parse()
    .unwrap()
}
