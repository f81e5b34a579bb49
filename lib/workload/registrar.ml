(** The running example of the paper: the registrar database R0, the
    recursive DTD D0 and the ATG σ0 of Fig. 2, plus the sample instance of
    Fig. 1. Used throughout the tests, the examples and the docs. *)

module Value = Rxv_relational.Value
module Schema = Rxv_relational.Schema
module Spj = Rxv_relational.Spj
module Database = Rxv_relational.Database
module Dtd = Rxv_xml.Dtd
module Atg = Rxv_atg.Atg

let schema =
  Schema.db
    [
      Schema.relation "course"
        [
          Schema.attr "cno" Value.TStr;
          Schema.attr "title" Value.TStr;
          Schema.attr "dept" Value.TStr;
        ]
        ~key:[ "cno" ];
      Schema.relation "project"
        [
          Schema.attr "cno" Value.TStr;
          Schema.attr "title" Value.TStr;
          Schema.attr "dept" Value.TStr;
        ]
        ~key:[ "cno" ];
      Schema.relation "student"
        [ Schema.attr "ssn" Value.TStr; Schema.attr "name" Value.TStr ]
        ~key:[ "ssn" ];
      Schema.relation "enroll"
        [ Schema.attr "ssn" Value.TStr; Schema.attr "cno" Value.TStr ]
        ~key:[ "ssn"; "cno" ];
      Schema.relation "prereq"
        [ Schema.attr "cno1" Value.TStr; Schema.attr "cno2" Value.TStr ]
        ~key:[ "cno1"; "cno2" ];
    ]

(* D0 of Example 1, normalized (pcdata leaves as their own types). *)
let dtd =
  Dtd.make ~root:"db"
    [
      ("db", Dtd.Star "course");
      ("course", Dtd.Seq [ "cno"; "title"; "prereq"; "takenBy" ]);
      ("cno", Dtd.Pcdata);
      ("title", Dtd.Pcdata);
      ("prereq", Dtd.Star "course");
      ("takenBy", Dtd.Star "student");
      ("student", Dtd.Seq [ "ssn"; "name" ]);
      ("ssn", Dtd.Pcdata);
      ("name", Dtd.Pcdata);
    ]

(* σ0 of Fig. 2. $course = (cno, title); $prereq = $takenBy = (cno). *)
let atg () =
  let q_db_course =
    Spj.make ~name:"Qdb_course"
      ~from:[ ("c", "course") ]
      ~where:[ Spj.eq (Spj.col "c" "dept") (Spj.const (Value.str "CS")) ]
      ~select:[ ("cno", Spj.col "c" "cno"); ("title", Spj.col "c" "title") ]
  in
  let q_prereq_course =
    Spj.make ~name:"Qprereq_course"
      ~from:[ ("p", "prereq"); ("c", "course") ]
      ~where:
        [
          Spj.eq (Spj.col "p" "cno1") (Spj.param 0);
          Spj.eq (Spj.col "p" "cno2") (Spj.col "c" "cno");
        ]
      ~select:[ ("cno", Spj.col "c" "cno"); ("title", Spj.col "c" "title") ]
  in
  let q_takenby_student =
    Spj.make ~name:"QtakenBy_student"
      ~from:[ ("e", "enroll"); ("s", "student") ]
      ~where:
        [
          Spj.eq (Spj.col "e" "cno") (Spj.param 0);
          Spj.eq (Spj.col "e" "ssn") (Spj.col "s" "ssn");
        ]
      ~select:[ ("ssn", Spj.col "s" "ssn"); ("name", Spj.col "s" "name") ]
  in
  Atg.make ~name:"registrar" ~schema ~dtd
    [
      ("db", Atg.star q_db_course);
      ( "course",
        Atg.R_seq
          [
            ("cno", [| Atg.From_parent 0 |]);
            ("title", [| Atg.From_parent 1 |]);
            ("prereq", [| Atg.From_parent 0 |]);
            ("takenBy", [| Atg.From_parent 0 |]);
          ] );
      ("cno", Atg.R_pcdata 0);
      ("title", Atg.R_pcdata 0);
      ("prereq", Atg.star q_prereq_course);
      ("takenBy", Atg.star q_takenby_student);
      ( "student",
        Atg.R_seq
          [ ("ssn", [| Atg.From_parent 0 |]); ("name", [| Atg.From_parent 1 |]) ]
      );
      ("ssn", Atg.R_pcdata 0);
      ("name", Atg.R_pcdata 0);
    ]

let s v = Value.str v

(** The sample instance behind Fig. 1: CS650 requires CS320, CS320
    requires CS120; CS240 is a CS course with no prerequisites; MA100 is
    outside the CS view. CS320 therefore occurs both at top level and as a
    shared prerequisite subtree. *)
let sample_db () =
  let db = Database.create schema in
  List.iter
    (fun row -> Database.insert db "course" (Array.map s row))
    [
      [| "CS650"; "Advanced Databases"; "CS" |];
      [| "CS320"; "Database Systems"; "CS" |];
      [| "CS240"; "Data Structures"; "CS" |];
      [| "CS120"; "Programming"; "CS" |];
      [| "MA100"; "Calculus"; "MA" |];
    ];
  List.iter
    (fun row -> Database.insert db "prereq" (Array.map s row))
    [ [| "CS650"; "CS320" |]; [| "CS320"; "CS120" |] ];
  List.iter
    (fun row -> Database.insert db "student" (Array.map s row))
    [
      [| "S01"; "Alice" |];
      [| "S02"; "Bob" |];
      [| "S03"; "Carol" |];
    ];
  List.iter
    (fun row -> Database.insert db "enroll" (Array.map s row))
    [
      [| "S01"; "CS650" |];
      [| "S02"; "CS320" |];
      [| "S02"; "CS650" |];
      [| "S03"; "CS120" |];
      [| "S03"; "CS320" |];
    ];
  db

(** $course value for a course element. *)
let course_attr cno title = [| s cno; s title |]

(** A ready engine over the sample instance. *)
let engine () = Rxv_core.Engine.create (atg ()) (sample_db ())
