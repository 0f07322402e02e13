(* Pinned outputs for the 8-node tiny grid.

   Every application under MW, SW, WFS, WFS+WG and HLRC on both fabrics
   (flat central barrier, and the tree fabric with its combining
   barrier, sharded lock homes and sparse clocks), plus SOR, IS and
   Water under MW and WFS with a crash, message loss and jitter.  Each
   cell must reproduce its recorded time, event count, traffic,
   checksum and JSONL trace bytes exactly (see pin.ml). *)

module Config = Adsm_dsm.Config
module Registry = Adsm_apps.Registry
module Scaling = Adsm_harness.Scaling

let fabrics =
  [ ("flat", Fun.id); ("tree", Scaling.tweak_of_fabric Scaling.Tree_combining) ]

let grid_pins : Pin.t list =
  [
    { cell = "IS/MW/flat"; time_ns = 71247030; events = 566; messages = 294; wire_bytes = 142691;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "a03510daa29e667de8714d8250953e2f";
      by_kind = [ ("barrier", (70, 5320)); ("diff", (182, 121671)); ("lock", (42, 3940)) ] };
    { cell = "IS/MW/tree"; time_ns = 73959600; events = 560; messages = 288; wire_bytes = 143164;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "8bb3e39f8976b0227598d55911cf5012";
      by_kind = [ ("barrier", (70, 6640)); ("diff", (176, 121712)); ("lock", (42, 3292)) ] };
    { cell = "IS/WFS+WG/flat"; time_ns = 76289055; events = 450; messages = 226; wire_bytes = 123971;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "c02b85fd6a79e9f9aa5e3b59e2f4fc15";
      by_kind = [ ("barrier", (70, 5488)); ("diff", (70, 46911)); ("lock", (42, 4052)); ("own", (16, 464)); ("page", (28, 58016)) ] };
    { cell = "IS/WFS+WG/tree"; time_ns = 79042000; events = 450; messages = 226; wire_bytes = 124659;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "0942113b2e71a90e101de69e9b2fad74";
      by_kind = [ ("barrier", (70, 6820)); ("diff", (70, 46915)); ("lock", (42, 3404)); ("own", (16, 464)); ("page", (28, 58016)) ] };
    { cell = "IS/WFS/flat"; time_ns = 65560260; events = 353; messages = 176; wire_bytes = 84036;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "9e3004da2c855949f9b5d60b781c37eb";
      by_kind = [ ("barrier", (70, 5600)); ("lock", (42, 4164)); ("own", (32, 928)); ("page", (32, 66304)) ] };
    { cell = "IS/WFS/tree"; time_ns = 68530160; events = 354; messages = 176; wire_bytes = 84732;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "810e3b422559fb01e9dd88945bbe6d23";
      by_kind = [ ("barrier", (70, 6944)); ("lock", (42, 3516)); ("own", (32, 928)); ("page", (32, 66304)) ] };
    { cell = "IS/SW/flat"; time_ns = 86695560; events = 381; messages = 188; wire_bytes = 149704;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "bc0e8e3027536c0e7b3df75726d5fc65";
      by_kind = [ ("barrier", (70, 5600)); ("lock", (42, 4164)); ("own", (44, 66116)); ("page", (32, 66304)) ] };
    { cell = "IS/SW/tree"; time_ns = 89677460; events = 382; messages = 188; wire_bytes = 150400;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "e731c7414a498ca03eb1ef6f2cc2536e";
      by_kind = [ ("barrier", (70, 6944)); ("lock", (42, 3516)); ("own", (44, 66116)); ("page", (32, 66304)) ] };
    { cell = "IS/HLRC/flat"; time_ns = 52687160; events = 345; messages = 156; wire_bytes = 96860;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "996bcf381a177f70ef0ef3f5406873b2";
      by_kind = [ ("barrier", (70, 5320)); ("diff", (16, 22672)); ("lock", (42, 3940)); ("page", (28, 58688)) ] };
    { cell = "IS/HLRC/tree"; time_ns = 57641660; events = 345; messages = 156; wire_bytes = 97700;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "1f0a87f44c8c826a4a0a8c751653ddac";
      by_kind = [ ("barrier", (70, 6640)); ("diff", (16, 22864)); ("lock", (42, 3292)); ("page", (28, 58664)) ] };
    { cell = "3D-FFT/MW/flat"; time_ns = 44609090; events = 2635; messages = 1134; wire_bytes = 329602;
      checksum = -0x1.3306f56795214p+8; trace_md5 = Some "efa5170b6817d8e6ef9da31a3ea0f8da";
      by_kind = [ ("barrier", (98, 19320)); ("diff", (1036, 264922)) ] };
    { cell = "3D-FFT/MW/tree"; time_ns = 49949015; events = 2674; messages = 1134; wire_bytes = 341098;
      checksum = -0x1.3306f56795214p+8; trace_md5 = Some "1581dd6f7e2f778632d3c963883ce053";
      by_kind = [ ("barrier", (98, 14768)); ("diff", (1036, 280970)) ] };
    { cell = "3D-FFT/WFS+WG/flat"; time_ns = 75948500; events = 2452; messages = 994; wire_bytes = 405155;
      checksum = -0x1.3306f56795214p+8; trace_md5 = Some "9997ee305cd2991b57201ae80bcb7a4b";
      by_kind = [ ("barrier", (98, 19460)); ("diff", (750, 198691)); ("own", (76, 2204)); ("page", (70, 145040)) ] };
    { cell = "3D-FFT/WFS+WG/tree"; time_ns = 79486675; events = 2480; messages = 992; wire_bytes = 414142;
      checksum = -0x1.3306f56795214p+8; trace_md5 = Some "9b899fca87562b2ca01c3b9a288d451e";
      by_kind = [ ("barrier", (98, 14908)); ("diff", (748, 212310)); ("own", (76, 2204)); ("page", (70, 145040)) ] };
    { cell = "3D-FFT/WFS/flat"; time_ns = 75948500; events = 2452; messages = 994; wire_bytes = 405155;
      checksum = -0x1.3306f56795214p+8; trace_md5 = Some "d9482ad77ac4ddc0c67503d3ea28a54b";
      by_kind = [ ("barrier", (98, 19460)); ("diff", (750, 198691)); ("own", (76, 2204)); ("page", (70, 145040)) ] };
    { cell = "3D-FFT/WFS/tree"; time_ns = 79486675; events = 2480; messages = 992; wire_bytes = 414142;
      checksum = -0x1.3306f56795214p+8; trace_md5 = Some "7b1705d5eab51b6238f48a4b6d6b1826";
      by_kind = [ ("barrier", (98, 14908)); ("diff", (748, 212310)); ("own", (76, 2204)); ("page", (70, 145040)) ] };
    { cell = "3D-FFT/SW/flat"; time_ns = 7937762900; events = 42982; messages = 17924; wire_bytes = 27829756;
      checksum = -0x1.3306f56795214p+8; trace_md5 = Some "9f7fa062b6ea5df64f44c902d86106b4";
      by_kind = [ ("barrier", (98, 22008)); ("own", (17738, 26908452)); ("page", (88, 182336)) ] };
    { cell = "3D-FFT/SW/tree"; time_ns = 8289013100; events = 45605; messages = 18781; wire_bytes = 29042556;
      checksum = -0x1.3306f56795214p+8; trace_md5 = Some "1dd68b118641e6ac79cba439b0488e09";
      by_kind = [ ("barrier", (98, 17648)); ("own", (18595, 28091332)); ("page", (88, 182336)) ] };
    { cell = "3D-FFT/HLRC/flat"; time_ns = 65366900; events = 1305; messages = 312; wire_bytes = 345204;
      checksum = -0x1.3306f56795214p+8; trace_md5 = Some "4b30d5b5b96cdd78f8171a1f3314b900";
      by_kind = [ ("barrier", (98, 19320)); ("diff", (84, 39972)); ("page", (130, 273432)) ] };
    { cell = "3D-FFT/HLRC/tree"; time_ns = 68346800; events = 1305; messages = 312; wire_bytes = 339332;
      checksum = -0x1.3306f56795214p+8; trace_md5 = Some "0a087e4a2f995e2d2899cbb5830f58a2";
      by_kind = [ ("barrier", (98, 14768)); ("diff", (84, 38628)); ("page", (130, 273456)) ] };
    { cell = "SOR/MW/flat"; time_ns = 109056620; events = 1393; messages = 392; wire_bytes = 292726;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "3dec4b9f38cd7419eb152f77367e9f99";
      by_kind = [ ("barrier", (140, 31248)); ("diff", (252, 245798)) ] };
    { cell = "SOR/MW/tree"; time_ns = 115504135; events = 1393; messages = 392; wire_bytes = 292670;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "078ce49d0d109959dd4a61bda674ff2e";
      by_kind = [ ("barrier", (140, 23312)); ("diff", (252, 253678)) ] };
    { cell = "SOR/WFS+WG/flat"; time_ns = 94552275; events = 1303; messages = 418; wire_bytes = 302401;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "48f6998a6db64b022599871695cdce1a";
      by_kind = [ ("barrier", (140, 31864)); ("diff", (186, 120397)); ("own", (28, 812)); ("page", (64, 132608)) ] };
    { cell = "SOR/WFS+WG/tree"; time_ns = 100662000; events = 1298; messages = 416; wire_bytes = 297300;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "6b2975a53a2f86c2fd4231482edb5d3f";
      by_kind = [ ("barrier", (140, 23972)); ("diff", (184, 123268)); ("own", (28, 812)); ("page", (64, 132608)) ] };
    { cell = "SOR/WFS/flat"; time_ns = 103219000; events = 1119; messages = 412; wire_bytes = 557692;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "7ae525404d60dacf1a51deaf5a9e1966";
      by_kind = [ ("barrier", (140, 34832)); ("own", (28, 812)); ("page", (244, 505568)) ] };
    { cell = "SOR/WFS/tree"; time_ns = 105373925; events = 1104; messages = 406; wire_bytes = 537340;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "8d0203ec6a0835351e05f81201e2a288";
      by_kind = [ ("barrier", (140, 27152)); ("own", (28, 812)); ("page", (238, 493136)) ] };
    { cell = "SOR/SW/flat"; time_ns = 107247000; events = 1141; messages = 412; wire_bytes = 614560;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "d74b7a972681ad42ea44896d9869f4d2";
      by_kind = [ ("barrier", (140, 34832)); ("own", (28, 57680)); ("page", (244, 505568)) ] };
    { cell = "SOR/SW/tree"; time_ns = 109434900; events = 1126; messages = 406; wire_bytes = 594208;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "476aae03e06b8ca00c790d1b8fc3bbf9";
      by_kind = [ ("barrier", (140, 27152)); ("own", (28, 57680)); ("page", (238, 493136)) ] };
    { cell = "SOR/HLRC/flat"; time_ns = 109000900; events = 1336; messages = 484; wire_bytes = 652640;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "e17b4fb52e43574fcd74df59651825f6";
      by_kind = [ ("barrier", (140, 31248)); ("diff", (126, 149464)); ("page", (218, 452568)) ] };
    { cell = "SOR/HLRC/tree"; time_ns = 109857200; events = 1336; messages = 484; wire_bytes = 642688;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "e4c16b5351ba93b777384a78cafcd3fb";
      by_kind = [ ("barrier", (140, 23312)); ("diff", (126, 147448)); ("page", (218, 452568)) ] };
    { cell = "TSP/MW/flat"; time_ns = 126711485; events = 1644; messages = 862; wire_bytes = 91274;
      checksum = 0x1.4ap+7; trace_md5 = Some "59b188bdd26ea1f31196e8a9d64ee817";
      by_kind = [ ("barrier", (42, 3544)); ("diff", (676, 33158)); ("lock", (144, 20092)) ] };
    { cell = "TSP/MW/tree"; time_ns = 133823385; events = 1647; messages = 864; wire_bytes = 118611;
      checksum = 0x1.4ap+7; trace_md5 = Some "f5ddf7ca30b4a0e324bccd41f41f3161";
      by_kind = [ ("barrier", (42, 6192)); ("diff", (678, 43927)); ("lock", (144, 33932)) ] };
    { cell = "TSP/WFS+WG/flat"; time_ns = 145833000; events = 1304; messages = 679; wire_bytes = 182884;
      checksum = 0x1.4ap+7; trace_md5 = Some "2a3e9d6350d1971b2678c19d314ab45c";
      by_kind = [ ("barrier", (42, 3368)); ("diff", (436, 14226)); ("lock", (125, 17432)); ("own", (18, 522)); ("page", (58, 120176)) ] };
    { cell = "TSP/WFS+WG/tree"; time_ns = 152419975; events = 1304; messages = 679; wire_bytes = 205088;
      checksum = 0x1.4ap+7; trace_md5 = Some "c3bb8f004ce4d88e2ac917163302f36b";
      by_kind = [ ("barrier", (42, 5612)); ("diff", (436, 22898)); ("lock", (125, 28720)); ("own", (18, 522)); ("page", (58, 120176)) ] };
    { cell = "TSP/WFS/flat"; time_ns = 183493850; events = 768; messages = 369; wire_bytes = 287582;
      checksum = 0x1.4ap+7; trace_md5 = Some "d4d779984a3b11a1c9f4b2326493667f";
      by_kind = [ ("barrier", (42, 3476)); ("lock", (125, 18328)); ("own", (82, 2378)); ("page", (120, 248640)) ] };
    { cell = "TSP/WFS/tree"; time_ns = 188193125; events = 768; messages = 369; wire_bytes = 301158;
      checksum = 0x1.4ap+7; trace_md5 = Some "964ba72ab9a592cdfbeb0b1987f428dc";
      by_kind = [ ("barrier", (42, 5764)); ("lock", (125, 29616)); ("own", (82, 2378)); ("page", (120, 248640)) ] };
    { cell = "TSP/SW/flat"; time_ns = 237234000; events = 839; messages = 398; wire_bytes = 455768;
      checksum = 0x1.4ap+7; trace_md5 = Some "45a4056e0fcaf65af888305de6124af6";
      by_kind = [ ("barrier", (42, 3476)); ("lock", (125, 18328)); ("own", (111, 169404)); ("page", (120, 248640)) ] };
    { cell = "TSP/SW/tree"; time_ns = 241959200; events = 839; messages = 398; wire_bytes = 469344;
      checksum = 0x1.4ap+7; trace_md5 = Some "d140112fc5d8c9037f6d3f2d570ed2e5";
      by_kind = [ ("barrier", (42, 5764)); ("lock", (125, 29616)); ("own", (111, 169404)); ("page", (120, 248640)) ] };
    { cell = "TSP/HLRC/flat"; time_ns = 141785500; events = 735; messages = 317; wire_bytes = 262956;
      checksum = 0x1.4ap+7; trace_md5 = Some "44753a7c809a98ee4d93650ee4141451";
      by_kind = [ ("barrier", (42, 3304)); ("diff", (39, 3244)); ("lock", (128, 17608)); ("page", (108, 226120)) ] };
    { cell = "TSP/HLRC/tree"; time_ns = 146865400; events = 736; messages = 317; wire_bytes = 278116;
      checksum = 0x1.4ap+7; trace_md5 = Some "7e8fc9a602c436d1899801da8e7dd2cb";
      by_kind = [ ("barrier", (42, 5664)); ("diff", (39, 4388)); ("lock", (128, 29256)); ("page", (108, 226128)) ] };
    { cell = "Water/MW/flat"; time_ns = 154468825; events = 3619; messages = 1496; wire_bytes = 242476;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "add8d014e69aee15b90048b4c440c1c7";
      by_kind = [ ("barrier", (112, 39888)); ("diff", (1176, 121028)); ("lock", (208, 21720)) ] };
    { cell = "Water/MW/tree"; time_ns = 154962120; events = 3635; messages = 1518; wire_bytes = 267809;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "f44f084b125b63737f9d143d58f41914";
      by_kind = [ ("barrier", (112, 49672)); ("diff", (1186, 136065)); ("lock", (220, 21352)) ] };
    { cell = "Water/WFS+WG/flat"; time_ns = 184845385; events = 3363; messages = 1348; wire_bytes = 394060;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "4e782366def39d389cdd3700d988f1f6";
      by_kind = [ ("barrier", (112, 41588)); ("diff", (904, 101368)); ("lock", (208, 21976)); ("own", (40, 1160)); ("page", (84, 174048)) ] };
    { cell = "Water/WFS+WG/tree"; time_ns = 185780070; events = 3401; messages = 1402; wire_bytes = 416345;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "877cba6be696d78492156c12f34026c4";
      by_kind = [ ("barrier", (112, 50836)); ("diff", (946, 112725)); ("lock", (220, 21496)); ("own", (40, 1160)); ("page", (84, 174048)) ] };
    { cell = "Water/WFS/flat"; time_ns = 203648805; events = 2995; messages = 1190; wire_bytes = 509676;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "b4fef62a0a26370717452b65196d5839";
      by_kind = [ ("barrier", (112, 42580)); ("diff", (628, 68086)); ("lock", (210, 21656)); ("own", (82, 2378)); ("page", (158, 327376)) ] };
    { cell = "Water/WFS/tree"; time_ns = 202796280; events = 3016; messages = 1222; wire_bytes = 525844;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "d497d134c8a4a355d2eb6dccf95b9892";
      by_kind = [ ("barrier", (112, 51872)); ("diff", (648, 73656)); ("lock", (220, 21624)); ("own", (84, 2436)); ("page", (158, 327376)) ] };
    { cell = "Water/SW/flat"; time_ns = 331017500; events = 2415; messages = 1082; wire_bytes = 1542440;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "802544d4f084a8a071884c4466a92ab8";
      by_kind = [ ("barrier", (112, 45652)); ("lock", (210, 22916)); ("own", (448, 784128)); ("page", (312, 646464)) ] };
    { cell = "Water/SW/tree"; time_ns = 333137600; events = 2418; messages = 1096; wire_bytes = 1535292;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "926cc3f4bacab34d99ed02bff13b1586";
      by_kind = [ ("barrier", (112, 51676)); ("lock", (224, 21444)); ("own", (446, 767724)); ("page", (314, 650608)) ] };
    { cell = "Water/HLRC/flat"; time_ns = 180380600; events = 1915; messages = 782; wire_bytes = 754108;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "987cbec6073d8e1b12169fc3dca226cb";
      by_kind = [ ("barrier", (112, 40392)); ("diff", (151, 19140)); ("lock", (211, 20896)); ("page", (308, 642400)) ] };
    { cell = "Water/HLRC/tree"; time_ns = 193903600; events = 1990; messages = 813; wire_bytes = 825252;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "7a9a0f29596130343202ee16dcddf3bb";
      by_kind = [ ("barrier", (112, 50424)); ("diff", (149, 20620)); ("lock", (216, 21016)); ("page", (336, 700672)) ] };
    { cell = "Shallow/MW/flat"; time_ns = 94205970; events = 2416; messages = 606; wire_bytes = 565851;
      checksum = 0x1.1adef206dc284p+7; trace_md5 = Some "1eb46848ee7d717eda1d610d4e94903c";
      by_kind = [ ("barrier", (112, 29120)); ("diff", (494, 512491)) ] };
    { cell = "Shallow/MW/tree"; time_ns = 102174135; events = 2419; messages = 606; wire_bytes = 568075;
      checksum = 0x1.1adef206dc284p+7; trace_md5 = Some "7f792dfa04984e2f99235cc2e18f75c6";
      by_kind = [ ("barrier", (112, 23248)); ("diff", (494, 520587)) ] };
    { cell = "Shallow/WFS+WG/flat"; time_ns = 111014015; events = 2555; messages = 712; wire_bytes = 661534;
      checksum = 0x1.1adef206dc284p+7; trace_md5 = Some "0e98b5d9c399df99b1a2534e2e1216a4";
      by_kind = [ ("barrier", (112, 30240)); ("diff", (328, 337508)); ("own", (146, 4234)); ("page", (126, 261072)) ] };
    { cell = "Shallow/WFS+WG/tree"; time_ns = 116840420; events = 2561; messages = 714; wire_bytes = 660851;
      checksum = 0x1.1adef206dc284p+7; trace_md5 = Some "7402d62fbddb7a3f598cb1f6ef41e547";
      by_kind = [ ("barrier", (112, 24428)); ("diff", (330, 342557)); ("own", (146, 4234)); ("page", (126, 261072)) ] };
    { cell = "Shallow/WFS/flat"; time_ns = 111014015; events = 2555; messages = 712; wire_bytes = 661534;
      checksum = 0x1.1adef206dc284p+7; trace_md5 = Some "68f17c1b4690603a31d53e608b978af0";
      by_kind = [ ("barrier", (112, 30240)); ("diff", (328, 337508)); ("own", (146, 4234)); ("page", (126, 261072)) ] };
    { cell = "Shallow/WFS/tree"; time_ns = 116840420; events = 2561; messages = 714; wire_bytes = 660851;
      checksum = 0x1.1adef206dc284p+7; trace_md5 = Some "457e254a3cbce1b571c95a49f11979f7";
      by_kind = [ ("barrier", (112, 24428)); ("diff", (330, 342557)); ("own", (146, 4234)); ("page", (126, 261072)) ] };
    { cell = "Shallow/SW/flat"; time_ns = 2734938600; events = 37448; messages = 17531; wire_bytes = 27089472;
      checksum = 0x1.1adef206dc284p+7; trace_md5 = Some "aa81cd5d7437deff952c695e140aec48";
      by_kind = [ ("barrier", (112, 34272)); ("own", (17171, 25840104)); ("page", (248, 513856)) ] };
    { cell = "Shallow/SW/tree"; time_ns = 2735838700; events = 37450; messages = 17531; wire_bytes = 27083968;
      checksum = 0x1.1adef206dc284p+7; trace_md5 = Some "db9ae8644376b8e6ac76053fdf2e96c1";
      by_kind = [ ("barrier", (112, 28768)); ("own", (17171, 25840104)); ("page", (248, 513856)) ] };
    { cell = "Shallow/HLRC/flat"; time_ns = 120128000; events = 2268; messages = 623; wire_bytes = 1104828;
      checksum = 0x1.1adef206dc284p+7; trace_md5 = Some "6e8a2176860f51cfbcac358ab68d3ec6";
      by_kind = [ ("barrier", (112, 29120)); ("diff", (161, 322788)); ("page", (350, 728000)) ] };
    { cell = "Shallow/HLRC/tree"; time_ns = 121900300; events = 2268; messages = 623; wire_bytes = 1096380;
      checksum = 0x1.1adef206dc284p+7; trace_md5 = Some "617eb53afda7121bb82d6e665bc1ab6f";
      by_kind = [ ("barrier", (112, 23248)); ("diff", (161, 320212)); ("page", (350, 728000)) ] };
    { cell = "Barnes/MW/flat"; time_ns = 29700305; events = 1111; messages = 528; wire_bytes = 125674;
      checksum = -0x1.1aa103724e68fp-4; trace_md5 = Some "729e3294a431658e18257fa10176a9b8";
      by_kind = [ ("barrier", (84, 16072)); ("diff", (444, 88482)) ] };
    { cell = "Barnes/MW/tree"; time_ns = 34070695; events = 1128; messages = 528; wire_bytes = 127418;
      checksum = -0x1.1aa103724e68fp-4; trace_md5 = Some "b537b50f6070c4ea4d7ba410c07d3a86";
      by_kind = [ ("barrier", (84, 11504)); ("diff", (444, 94794)) ] };
    { cell = "Barnes/WFS+WG/flat"; time_ns = 42935780; events = 1163; messages = 544; wire_bytes = 177332;
      checksum = -0x1.1aa103724e68fp-4; trace_md5 = Some "5f9246e3be7557fafa6623b5dba74e62";
      by_kind = [ ("barrier", (84, 16128)); ("diff", (416, 80964)); ("own", (16, 464)); ("page", (28, 58016)) ] };
    { cell = "Barnes/WFS+WG/tree"; time_ns = 47264245; events = 1168; messages = 544; wire_bytes = 178920;
      checksum = -0x1.1aa103724e68fp-4; trace_md5 = Some "1cf4471b257bc3a121c240cb991b67a5";
      by_kind = [ ("barrier", (84, 11564)); ("diff", (416, 87116)); ("own", (16, 464)); ("page", (28, 58016)) ] };
    { cell = "Barnes/WFS/flat"; time_ns = 42935780; events = 1163; messages = 544; wire_bytes = 177332;
      checksum = -0x1.1aa103724e68fp-4; trace_md5 = Some "02832fce1e21fb265dedf4b1111e0db2";
      by_kind = [ ("barrier", (84, 16128)); ("diff", (416, 80964)); ("own", (16, 464)); ("page", (28, 58016)) ] };
    { cell = "Barnes/WFS/tree"; time_ns = 47264245; events = 1168; messages = 544; wire_bytes = 178920;
      checksum = -0x1.1aa103724e68fp-4; trace_md5 = Some "b651d3849a2d448aee223d710eed0101";
      by_kind = [ ("barrier", (84, 11564)); ("diff", (416, 87116)); ("own", (16, 464)); ("page", (28, 58016)) ] };
    { cell = "Barnes/SW/flat"; time_ns = 127714100; events = 663; messages = 276; wire_bytes = 367732;
      checksum = -0x1.1aa103724e68fp-4; trace_md5 = Some "e099c290b321472ba6984c0aa8aa8acd";
      by_kind = [ ("barrier", (84, 17332)); ("own", (104, 157024)); ("page", (88, 182336)) ] };
    { cell = "Barnes/SW/tree"; time_ns = 132966100; events = 649; messages = 270; wire_bytes = 354752;
      checksum = -0x1.1aa103724e68fp-4; trace_md5 = Some "15cea6951bf7cbe08b0b5733edcaeda8";
      by_kind = [ ("barrier", (84, 12864)); ("own", (98, 148752)); ("page", (88, 182336)) ] };
    { cell = "Barnes/HLRC/flat"; time_ns = 48445600; events = 567; messages = 212; wire_bytes = 222676;
      checksum = -0x1.1aa103724e68fp-4; trace_md5 = Some "0875634a46dcf6004c5b6f1d342634a6";
      by_kind = [ ("barrier", (84, 16072)); ("diff", (40, 14092)); ("page", (88, 184032)) ] };
    { cell = "Barnes/HLRC/tree"; time_ns = 53708400; events = 568; messages = 212; wire_bytes = 217468;
      checksum = -0x1.1aa103724e68fp-4; trace_md5 = Some "7b57aa580663fa27d26b4236df2155ed";
      by_kind = [ ("barrier", (84, 11504)); ("diff", (40, 13452)); ("page", (88, 184032)) ] };
    { cell = "ILINK/MW/flat"; time_ns = 134740275; events = 1282; messages = 644; wire_bytes = 156136;
      checksum = 0x1.be1ab7bfc4992p+9; trace_md5 = Some "3e5b03c714e0b68b120a8e9cd26011d7";
      by_kind = [ ("barrier", (84, 11592)); ("diff", (560, 118784)) ] };
    { cell = "ILINK/MW/tree"; time_ns = 137088320; events = 1304; messages = 644; wire_bytes = 160872;
      checksum = 0x1.be1ab7bfc4992p+9; trace_md5 = Some "5c86e4726ba25437d50d63ac33285b57";
      by_kind = [ ("barrier", (84, 9000)); ("diff", (560, 126112)) ] };
    { cell = "ILINK/WFS+WG/flat"; time_ns = 180552540; events = 1021; messages = 472; wire_bytes = 295030;
      checksum = 0x1.be1ab7bfc4992p+9; trace_md5 = Some "4db8826aad05153c45c98a184aec620f";
      by_kind = [ ("barrier", (84, 11984)); ("diff", (212, 30246)); ("own", (64, 1856)); ("page", (112, 232064)) ] };
    { cell = "ILINK/WFS+WG/tree"; time_ns = 182570640; events = 1021; messages = 472; wire_bytes = 295686;
      checksum = 0x1.be1ab7bfc4992p+9; trace_md5 = Some "c9522a944e2606af1a3e3cbcdcd20d12";
      by_kind = [ ("barrier", (84, 9392)); ("diff", (212, 33494)); ("own", (64, 1856)); ("page", (112, 232064)) ] };
    { cell = "ILINK/WFS/flat"; time_ns = 180552540; events = 1021; messages = 472; wire_bytes = 295030;
      checksum = 0x1.be1ab7bfc4992p+9; trace_md5 = Some "036ee2402ab02004126ec708650fc8ce";
      by_kind = [ ("barrier", (84, 11984)); ("diff", (212, 30246)); ("own", (64, 1856)); ("page", (112, 232064)) ] };
    { cell = "ILINK/WFS/tree"; time_ns = 182570640; events = 1021; messages = 472; wire_bytes = 295686;
      checksum = 0x1.be1ab7bfc4992p+9; trace_md5 = Some "4e8a161a42452a3083454f5aa2dcb4aa";
      by_kind = [ ("barrier", (84, 9392)); ("diff", (212, 33494)); ("own", (64, 1856)); ("page", (112, 232064)) ] };
    { cell = "ILINK/SW/flat"; time_ns = 206421600; events = 867; messages = 377; wire_bytes = 541700;
      checksum = 0x1.be1ab7bfc4992p+9; trace_md5 = Some "c1ec7627054dcea2798a8c500b279cf4";
      by_kind = [ ("barrier", (84, 13552)); ("own", (173, 264428)); ("page", (120, 248640)) ] };
    { cell = "ILINK/SW/tree"; time_ns = 205151600; events = 864; messages = 377; wire_bytes = 539236;
      checksum = 0x1.be1ab7bfc4992p+9; trace_md5 = Some "13ecf71717a7d0060551250dea99fa61";
      by_kind = [ ("barrier", (84, 11088)); ("own", (173, 264428)); ("page", (120, 248640)) ] };
    { cell = "ILINK/HLRC/flat"; time_ns = 146675900; events = 646; messages = 257; wire_bytes = 276328;
      checksum = 0x1.be1ab7bfc4992p+9; trace_md5 = Some "cd7142f8dbc8b8644ed654f97b71c8bd";
      by_kind = [ ("barrier", (84, 11592)); ("diff", (61, 20208)); ("page", (112, 234248)) ] };
    { cell = "ILINK/HLRC/tree"; time_ns = 148743600; events = 647; messages = 257; wire_bytes = 272760;
      checksum = 0x1.be1ab7bfc4992p+9; trace_md5 = Some "587e072236ee593148512c05bbb9e785";
      by_kind = [ ("barrier", (84, 9000)); ("diff", (61, 19232)); ("page", (112, 234248)) ] };
  ]

let crash_schedule = "crash=1@400us:200us;loss=0.05;jitter=2us"

let crash_pins : Pin.t list =
  [
    { cell = "SOR/MW/crash"; time_ns = 125211624; events = 1424; messages = 408; wire_bytes = 314341;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "d9a194bbacd34a352ad4ffcddc5b0f2e";
      by_kind = [ ("barrier", (140, 31088)); ("diff", (248, 245764)); ("page", (6, 12432)); ("recover", (14, 3632)) ] };
    { cell = "SOR/WFS/crash"; time_ns = 112800622; events = 1138; messages = 424; wire_bytes = 585494;
      checksum = 0x1.4f1bbcdcbfa54p+1; trace_md5 = Some "d483e1efe5081b37d71598643a6ec45a";
      by_kind = [ ("barrier", (140, 34664)); ("own", (28, 4908)); ("page", (242, 501424)); ("recover", (14, 784)) ] };
    { cell = "IS/MW/crash"; time_ns = 82297980; events = 593; messages = 308; wire_bytes = 158275;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "4b238b05ed39e16053fa9dd287dcdda3";
      by_kind = [ ("barrier", (70, 5320)); ("diff", (180, 120322)); ("lock", (42, 3940)); ("page", (2, 4144)); ("recover", (14, 384)) ] };
    { cell = "IS/WFS/crash"; time_ns = 75428621; events = 376; messages = 190; wire_bytes = 98214;
      checksum = 0x1.4e4c5e2c363b8p+13; trace_md5 = Some "6a35a655f883a03628fd2f7d8d5a9b95";
      by_kind = [ ("barrier", (70, 5600)); ("lock", (42, 4164)); ("own", (32, 928)); ("page", (32, 66304)); ("recover", (14, 388)) ] };
    { cell = "Water/MW/crash"; time_ns = 171827051; events = 3595; messages = 1476; wire_bytes = 277117;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "5c9367bff5d4383bd1095d429afcb71a";
      by_kind = [ ("barrier", (112, 39464)); ("diff", (1130, 117237)); ("lock", (208, 21488)); ("page", (12, 24864)); ("recover", (14, 3632)) ] };
    { cell = "Water/WFS/crash"; time_ns = 213208352; events = 2979; messages = 1188; wire_bytes = 530022;
      checksum = 0x1.9805be54407fcp+0; trace_md5 = Some "a9aa3bb8f7cff868f4f98556ec240d98";
      by_kind = [ ("barrier", (112, 41504)); ("diff", (608, 66920)); ("lock", (210, 21512)); ("own", (88, 14840)); ("page", (156, 323232)); ("recover", (14, 740)) ] };
  ]

let test_grid () =
  let cells = ref 0 in
  List.iter
    (fun app ->
      List.iter
        (fun protocol ->
          List.iter
            (fun (fabric, tweak) ->
              incr cells;
              Pin.find grid_pins
                (Printf.sprintf "%s/%s/%s" app.Registry.name
                   (Config.protocol_name protocol) fabric)
              |> Pin.check ~tweak ~app ~protocol ~nprocs:8
              |> ignore)
            fabrics)
        Config.extended_protocols)
    Registry.all;
  Alcotest.(check int) "every pin exercised" (List.length grid_pins) !cells

let test_crash_schedules () =
  let faults =
    match Adsm_net.Fault.of_string crash_schedule with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let cells = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun protocol ->
          incr cells;
          Pin.find crash_pins
            (Printf.sprintf "%s/%s/crash" name (Config.protocol_name protocol))
          |> Pin.check ~faults ~app:(Pin.app name) ~protocol ~nprocs:8
          |> ignore)
        [ Config.Mw; Config.Wfs ])
    [ "SOR"; "IS"; "Water" ];
  Alcotest.(check int) "every pin exercised" (List.length crash_pins) !cells

let () =
  Alcotest.run "pins"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "full grid, both fabrics" `Slow test_grid;
          Alcotest.test_case "crash schedules (SOR, IS, Water)" `Quick
            test_crash_schedules;
        ] );
    ]
