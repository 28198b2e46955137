open Ujam_linalg
module Json = Ujam_obs.Json

type kind =
  | Recount of { u : Vec.t; field : string; predicted : int; measured : int }
  | Sim_order of {
      u_better : Vec.t;
      u_worse : Vec.t;
      predicted_better : float;
      predicted_worse : float;
      measured_better : float;
      measured_worse : float;
    }
  | Model_divergence of {
      model : string;
      u : Vec.t;
      objective : float;
      reference_u : Vec.t;
      reference_objective : float;
    }
  | Verify of { u : Vec.t; rule : string; detail : string }
  | Native of {
      variant : string;
      array_name : string;
      native : float;
      expected : float;
    }
  | Cachepred of {
      level : string;
      floor : float;
      predicted : float;
      measured : float;
    }

type t = {
  nest : string;
  machine : string;
  kind : kind;
  explained : string option;
}

let make ~nest ~machine ?explained kind = { nest; machine; kind; explained }
let is_explained m = m.explained <> None

let layer m =
  match m.kind with
  | Recount _ -> "recount"
  | Sim_order _ -> "sim"
  | Model_divergence _ -> "cross-model"
  | Verify _ -> "verify"
  | Native _ -> "native"
  | Cachepred _ -> "cachepred"

let pp_f ppf v =
  if Float.is_integer v && Float.abs v < 1e9 then
    Format.fprintf ppf "%.0f" v
  else Format.fprintf ppf "%.4g" v

let pp ppf m =
  (match m.kind with
  | Recount { u; field; predicted; measured } ->
      Format.fprintf ppf "%s [recount] %s at u=%a: tables say %d, unrolled body has %d"
        m.nest field Vec.pp u predicted measured
  | Sim_order { u_better; u_worse; predicted_better; predicted_worse;
                measured_better; measured_worse } ->
      Format.fprintf ppf
        "%s [sim] tables rank u=%a (%a misses/iter) ahead of u=%a (%a), simulator measured %a vs %a"
        m.nest Vec.pp u_better pp_f predicted_better Vec.pp u_worse pp_f
        predicted_worse pp_f measured_better pp_f measured_worse
  | Model_divergence { model; u; objective; reference_u; reference_objective } ->
      Format.fprintf ppf
        "%s [cross-model] %s chose u=%a (objective %a) but u=%a achieves %a"
        m.nest model Vec.pp u pp_f objective Vec.pp reference_u pp_f
        reference_objective
  | Verify { u; rule; detail } ->
      Format.fprintf ppf "%s [verify] %s at u=%a: %s" m.nest rule Vec.pp u
        detail
  | Native { variant; array_name; native; expected } ->
      Format.fprintf ppf
        "%s [native] variant %s array %s: compiled run says %a, interpreter \
         says %a"
        m.nest variant array_name pp_f native pp_f expected
  | Cachepred { level; floor; predicted; measured } ->
      Format.fprintf ppf
        "%s [cachepred] %s miss ratio predicted in [%.3f, %.3f], hierarchy \
         simulator measured %.3f"
        m.nest level floor predicted measured);
  match m.explained with
  | Some why -> Format.fprintf ppf " (explained: %s)" why
  | None -> ()

let json_of_vec v = Json.List (List.map (fun x -> Json.Int x) (Vec.to_list v))

let json_f v = if Float.is_finite v then Json.Float v else Json.Null

let to_json m =
  let kind_fields =
    match m.kind with
    | Recount { u; field; predicted; measured } ->
        [ ("kind", Json.Str "recount");
          ("u", json_of_vec u);
          ("field", Json.Str field);
          ("predicted", Json.Int predicted);
          ("measured", Json.Int measured) ]
    | Sim_order { u_better; u_worse; predicted_better; predicted_worse;
                  measured_better; measured_worse } ->
        [ ("kind", Json.Str "sim-order");
          ("u_better", json_of_vec u_better);
          ("u_worse", json_of_vec u_worse);
          ("predicted_better", json_f predicted_better);
          ("predicted_worse", json_f predicted_worse);
          ("measured_better", json_f measured_better);
          ("measured_worse", json_f measured_worse) ]
    | Model_divergence { model; u; objective; reference_u; reference_objective }
      ->
        [ ("kind", Json.Str "cross-model");
          ("model", Json.Str model);
          ("u", json_of_vec u);
          ("objective", json_f objective);
          ("reference_u", json_of_vec reference_u);
          ("reference_objective", json_f reference_objective) ]
    | Verify { u; rule; detail } ->
        [ ("kind", Json.Str "verify");
          ("rule", Json.Str rule);
          ("u", json_of_vec u);
          ("detail", Json.Str detail) ]
    | Native { variant; array_name; native; expected } ->
        [ ("kind", Json.Str "native");
          ("variant", Json.Str variant);
          ("array", Json.Str array_name);
          ("native", json_f native);
          ("expected", json_f expected) ]
    | Cachepred { level; floor; predicted; measured } ->
        [ ("kind", Json.Str "cachepred");
          ("level", Json.Str level);
          ("floor", json_f floor);
          ("predicted", json_f predicted);
          ("measured", json_f measured) ]
  in
  Json.Obj
    (("nest", Json.Str m.nest) :: ("machine", Json.Str m.machine)
     :: kind_fields
    @ [ ("explained",
         match m.explained with Some s -> Json.Str s | None -> Json.Null) ])
