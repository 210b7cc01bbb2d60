type fit = { slope : float; intercept : float; r2 : float }

let r_squared points f =
  let n = float_of_int (List.length points) in
  let mean_y = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points /. n in
  let ss_tot = List.fold_left (fun acc (_, y) -> acc +. ((y -. mean_y) ** 2.0)) 0.0 points in
  let ss_res = List.fold_left (fun acc (x, y) -> acc +. ((y -. f x) ** 2.0)) 0.0 points in
  if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot)

let fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Linear_fit.fit: need at least 2 points";
  let fn = float_of_int n in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (fn *. sxx) -. (sx *. sx) in
  if denom = 0.0 then invalid_arg "Linear_fit.fit: degenerate x values";
  let slope = ((fn *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. fn in
  { slope; intercept; r2 = r_squared points (fun x -> intercept +. (slope *. x)) }
